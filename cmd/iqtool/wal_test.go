package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iq"
	"iq/internal/dataset"
)

// walFixture writes a small durable history: a few single mutations and one
// batch, so the dump shows mutation records and begin/end brackets.
func walFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	store, err := iq.OpenCtx(context.Background(), dir, iq.OpenOptions{Fsync: iq.FsyncOff, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	objs := dataset.Objects(dataset.Independent, 20, 3, rng)
	vecs := make([]iq.Vector, len(objs))
	for i, o := range objs {
		vecs[i] = iq.Vector(o)
	}
	sys, err := iq.NewLinear(vecs, dataset.UNQueries(8, 3, 4, true, rng))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.CommitCtx(ctx, 0, iq.Vector{-0.01, -0.01, -0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyBatchCtx(ctx, []iq.Mutation{
		{AddObject: &iq.AddObjectMutation{Attrs: iq.Vector{0.5, 0.5, 0.5}}},
		{Commit: &iq.CommitMutation{Target: 1, Strategy: iq.Vector{-0.02, 0, 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWALDumpAndVerify(t *testing.T) {
	dir := walFixture(t)

	var out bytes.Buffer
	if err := walVerify(&out, dir); err != nil {
		t.Fatalf("verify clean dir: %v", err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("verify output %q", out.String())
	}

	out.Reset()
	if err := walDump(&out, dir); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	for _, want := range []string{
		"segment wal-", "commit target=0", "begin-batch", "end-batch",
		"add-object dims=3", "epoch 1", "epoch 2", "checkpoint checkpoint-",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "CORRUPT") {
		t.Fatalf("clean dir dumped corruption:\n%s", dump)
	}
}

func TestWALVerifyDetectsCorruption(t *testing.T) {
	dir := walFixture(t)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	// Flip a byte near the end of the last segment.
	if _, err := f.WriteAt([]byte{0xff}, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := walVerify(&out, dir); err == nil {
		t.Fatal("verify should fail on a flipped byte")
	}
	out.Reset()
	if err := walDump(&out, dir); err != nil {
		t.Fatalf("dump should keep going past corruption: %v", err)
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Fatalf("dump did not report corruption:\n%s", out.String())
	}
}
