package iq

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"iq/internal/dataset"
	"iq/internal/obs"
)

// TestTracedSolveProducesDeepTrace is the end-to-end tracing acceptance
// check: a traced Min-Cost solve must export valid trace_event JSON with at
// least three nesting levels (solve → round → probe) and span names covering
// every engine stage the solve exercised.
func TestTracedSolveProducesDeepTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := smallSystem(t, rng, 120, 60)

	tr := NewTrace("mincost", 0)
	ctx := WithTrace(context.Background(), tr)
	res, err := sys.MinCostCtx(ctx, MinCostRequest{Target: 7, Tau: 10, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.SpanCount() == 0 {
		t.Fatal("traced solve recorded no spans")
	}

	var buf bytes.Buffer
	if err := WriteTraceEvent(&buf, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ValidateTraceEvent(buf.Bytes(),
		[]string{"solve/mincost", "round", "probe", "eval", "table/build"}, 3)
	if err != nil {
		t.Fatalf("trace_event validation: %v\n%s", err, buf.String())
	}
	if parsed.TraceID != tr.ID() {
		t.Errorf("trace id %q, want %q", parsed.TraceID, tr.ID())
	}
	// The round count in the trace matches the solve's own accounting: one
	// "round" span per greedy iteration.
	if got := parsed.Names["round"]; got != res.Stats.Rounds {
		t.Errorf("round spans %d, stats rounds %d", got, res.Stats.Rounds)
	}

	// The human-readable renderer agrees on the span set.
	var tree bytes.Buffer
	if err := WriteTree(&tree, tr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solve/mincost", "round", "probe"} {
		if !strings.Contains(tree.String(), name) {
			t.Errorf("tree output missing %q:\n%s", name, tree.String())
		}
	}
}

// TestTracedCommitRecordsIndexSpans checks the write path: a traced build
// records the skyband computation, a traced Commit the index clone and
// update, and a traced recovery the checkpoint's index rebuild under its
// "recover" span; none runs Algorithm 1 — no solve reads its partition.
func TestTracedCommitRecordsIndexSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	objs := dataset.Objects(dataset.Independent, 80, 3, rng)
	queries := dataset.UNQueries(40, 3, 5, false, rng)
	traced := func(name string, want []string, depth int, fn func(context.Context) error) *Trace {
		t.Helper()
		tr := NewTrace(name, 0)
		if err := fn(WithTrace(context.Background(), tr)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTraceEvent(&buf, tr); err != nil {
			t.Fatal(err)
		}
		parsed, err := obs.ValidateTraceEvent(buf.Bytes(), want, depth)
		if err != nil {
			t.Fatalf("%s trace: %v\n%s", name, err, buf.String())
		}
		for _, banned := range []string{"index/partition", "index/repartition"} {
			if parsed.Names[banned] > 0 {
				t.Errorf("%s trace records %q:\n%s", name, banned, buf.String())
			}
		}
		return tr
	}

	var sys *System
	traced("build", []string{"index/build"}, 1, func(ctx context.Context) error {
		var err error
		sys, err = NewWithOptionsCtx(ctx, LinearSpace{D: 3}, objs, queries, IndexOptions{})
		return err
	})
	res, err := sys.MinCost(MinCostRequest{Target: 2, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	traced("commit", []string{"index/clone", "index/update_object"}, 1, func(ctx context.Context) error {
		return sys.CommitCtx(ctx, 2, res.Strategy)
	})

	// A restart rebuilds the index from the checkpoint, then replays the
	// commit logged after it.
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.CommitCtx(ctx, 3, res.Strategy); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	tr := traced("recover", []string{"recover", "index/build", "recover/replay"}, 2, func(ctx context.Context) error {
		recovered, err := OpenCtx(ctx, dir, quietOpts(FsyncOff))
		if err != nil {
			return err
		}
		return recovered.Close()
	})
	var tree bytes.Buffer
	if err := WriteTree(&tree, tr); err != nil {
		t.Fatal(err)
	}
	// WriteTree indents a root span by two spaces and each level below it
	// by two more.
	if !strings.Contains(tree.String(), "\n  recover ") || !strings.Contains(tree.String(), "\n    index/build ") {
		t.Errorf("index/build is not a child of recover:\n%s", tree.String())
	}
}

// TestExhaustiveSolveStats asserts the work profile on the exhaustive path:
// subset enumeration probes every candidate subset, so Probes must cover
// Pruned + Candidates exactly and the wall clock must be recorded.
func TestExhaustiveSolveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sys := smallSystem(t, rng, 20, 8)
	res, err := sys.MinCostExhaustiveCtx(context.Background(), MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Probes == 0 {
		t.Fatal("exhaustive solve recorded no probes")
	}
	if st.Pruned+st.Candidates != st.Probes {
		t.Errorf("pruned %d + candidates %d != probes %d", st.Pruned, st.Candidates, st.Probes)
	}
	if st.Wall <= 0 {
		t.Errorf("wall %v", st.Wall)
	}
	if st.CancelCause != "" {
		t.Errorf("cancel cause %q on completed solve", st.CancelCause)
	}
}

// TestMultiTargetSolveStats asserts the work profile on the multi-target
// path, where probes fan out per (round, target, query).
func TestMultiTargetSolveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sys := smallSystem(t, rng, 80, 40)
	specs := []TargetSpec{
		{Target: 0, Cost: L2Cost{}},
		{Target: 1, Cost: L2Cost{}},
	}
	res, err := sys.MinCostMultiCtx(context.Background(), specs, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rounds == 0 || st.Probes == 0 {
		t.Fatalf("multi stats rounds=%d probes=%d", st.Rounds, st.Probes)
	}
	if st.Pruned+st.Candidates != st.Probes {
		t.Errorf("pruned %d + candidates %d != probes %d", st.Pruned, st.Candidates, st.Probes)
	}
	if st.Wall <= 0 {
		t.Errorf("wall %v", st.Wall)
	}
}
