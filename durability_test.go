package iq

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"iq/internal/wal"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func quietOpts(pol FsyncPolicy) OpenOptions {
	// One-hour interval: the background fsync ticker never fires during a
	// test, keeping crash-hook firing counts deterministic.
	return OpenOptions{Fsync: pol, FsyncInterval: time.Hour, Logger: quietLogger()}
}

// durFixture builds a small deterministic System for durability tests.
func durFixture(t *testing.T, seed int64) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, m = 12, 8
	objects := make([]Vector, n)
	for i := range objects {
		objects[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	queries := make([]Query, m)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(2),
			Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
	}
	sys, err := NewLinear(objects, queries)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The deterministic mutation script the crash tests replay: a mix of single
// mutations and atomic batches, one transaction (= one epoch) per step.
// Every op is logged at least once as a standalone record.
const crashScriptSteps = 8

// crashCheckpointBefore is the step index before which the durable runs
// write a checkpoint, so recovery exercises checkpoint + tail replay.
const crashCheckpointBefore = 4

func applyCrashStep(ctx context.Context, sys *System, i int) error {
	switch i {
	case 0:
		return sys.CommitCtx(ctx, 0, Vector{-0.05, -0.03, -0.02})
	case 1:
		_, err := sys.AddObjectCtx(ctx, Vector{0.55, 0.4, 0.35})
		return err
	case 2:
		_, err := sys.AddQueryCtx(ctx, Query{ID: 900, K: 2, Point: Vector{0.3, 0.3, 0.4}})
		return err
	case 3:
		_, err := sys.ApplyBatchCtx(ctx, []Mutation{
			{Commit: &CommitMutation{Target: 1, Strategy: Vector{-0.02, -0.04, -0.01}}},
			{AddObject: &AddObjectMutation{Attrs: Vector{0.6, 0.25, 0.45}}},
			{RemoveObject: &RemoveObjectMutation{ID: 2}},
		})
		return err
	case 4:
		return sys.RemoveQueryCtx(ctx, 1)
	case 5:
		_, err := sys.ApplyBatchCtx(ctx, []Mutation{
			{AddQuery: &AddQueryMutation{Query: Query{ID: 901, K: 1, Point: Vector{0.5, 0.2, 0.3}}}},
			{Commit: &CommitMutation{Target: 3, Strategy: Vector{-0.03, -0.01, -0.02}}},
		})
		return err
	case 6:
		return sys.CommitCtx(ctx, 4, Vector{-0.01, -0.02, -0.03})
	case 7:
		return sys.RemoveObjectCtx(ctx, 5)
	default:
		return fmt.Errorf("no crash-script step %d", i)
	}
}

// oracleAt rebuilds the in-memory reference state after the first k steps.
func oracleAt(t *testing.T, seed int64, k int) *System {
	t.Helper()
	sys := durFixture(t, seed)
	ctx := context.Background()
	for i := 0; i < k; i++ {
		if err := applyCrashStep(ctx, sys, i); err != nil {
			t.Fatalf("oracle step %d: %v", i, err)
		}
	}
	return sys
}

// solveFP is one solve's exact answer, compared bit-for-bit across
// crash/recovery boundaries.
type solveFP struct {
	strategy Vector
	cost     float64
	hits     int
	err      string
}

func fingerprint(sys *System) [2]solveFP {
	var out [2]solveFP
	if r, err := sys.MinCost(MinCostRequest{Target: 0, Tau: 2, Cost: L2Cost{}}); err != nil {
		out[0] = solveFP{err: err.Error()}
	} else {
		out[0] = solveFP{strategy: r.Strategy, cost: r.Cost, hits: r.Hits}
	}
	if r, err := sys.MaxHit(MaxHitRequest{Target: 3, Budget: 0.4, Cost: L2Cost{}}); err != nil {
		out[1] = solveFP{err: err.Error()}
	} else {
		out[1] = solveFP{strategy: r.Strategy, cost: r.Cost, hits: r.Hits}
	}
	return out
}

func sameFP(a, b [2]solveFP) bool {
	for i := range a {
		if a[i].err != b[i].err || a[i].cost != b[i].cost || a[i].hits != b[i].hits {
			return false
		}
		if len(a[i].strategy) != len(b[i].strategy) {
			return false
		}
		for d := range a[i].strategy {
			if a[i].strategy[d] != b[i].strategy[d] {
				return false
			}
		}
	}
	return true
}

func assertSameWorkload(t *testing.T, label string, got, want *System) {
	t.Helper()
	gw, ww := got.Workload(), want.Workload()
	if gw.NumObjects() != ww.NumObjects() {
		t.Fatalf("%s: %d objects, want %d", label, gw.NumObjects(), ww.NumObjects())
	}
	for i := 0; i < ww.NumObjects(); i++ {
		if gw.IsRemoved(i) != ww.IsRemoved(i) {
			t.Fatalf("%s: object %d removed=%v, want %v", label, i, gw.IsRemoved(i), ww.IsRemoved(i))
		}
		ga, wa := gw.Attrs(i), ww.Attrs(i)
		for d := range wa {
			if ga[d] != wa[d] {
				t.Fatalf("%s: object %d attr %d = %v, want %v", label, i, d, ga[d], wa[d])
			}
		}
	}
	if gw.NumQueries() != ww.NumQueries() {
		t.Fatalf("%s: %d queries, want %d", label, gw.NumQueries(), ww.NumQueries())
	}
	for j := 0; j < ww.NumQueries(); j++ {
		gq, wq := gw.Query(j), ww.Query(j)
		if gq.ID != wq.ID || gq.K != wq.K {
			t.Fatalf("%s: query %d = %+v, want %+v", label, j, gq, wq)
		}
		for d := range wq.Point {
			if gq.Point[d] != wq.Point[d] {
				t.Fatalf("%s: query %d point %d differs", label, j, d)
			}
		}
		if gw.IsQueryRemoved(j) != ww.IsQueryRemoved(j) {
			t.Fatalf("%s: query %d removed=%v, want %v", label, j, gw.IsQueryRemoved(j), ww.IsQueryRemoved(j))
		}
	}
	// A rebuilt index and one kept current mutation by mutation must hold
	// the same skyband and the same rows.
	if gc, wc := got.Index().Candidates(), want.Index().Candidates(); !slices.Equal(gc, wc) {
		t.Fatalf("%s: skyband %v, want %v", label, gc, wc)
	}
	for j := 0; j < ww.NumQueries(); j++ {
		if gr, wr := got.Index().Row(j), want.Index().Row(j); !sameRow(gr, wr) {
			t.Fatalf("%s: query %d row %v, want %v", label, j, gr, wr)
		}
	}
}

func TestOpenEmptyDir(t *testing.T) {
	store, err := OpenCtx(context.Background(), t.TempDir(), quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if store.System() != nil {
		t.Fatal("fresh dir should have no System")
	}
	if store.RecoveryStats().Recovered {
		t.Fatal("fresh dir should not report recovery")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRoundTripExactEpoch(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashScriptSteps; i++ {
		if err := applyCrashStep(ctx, sys, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	wantFP := fingerprint(sys)
	wantEpoch := sys.Epoch()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Data directories written by older servers also hold a telemetry
	// journal and, after a crash mid-compaction, its temporary file. The
	// journal matches neither the checkpoint nor the WAL names the store
	// prunes, so it must stay byte-identical; the temporary file is a
	// ".tmp-" leftover, which Open sweeps like its own.
	journal := filepath.Join(dir, "history.jsonl")
	journalBytes := []byte(`{"v":1,"format":"iq-history"}` + "\n" + `{"t":1700000000000,"dt":10}` + "\n")
	journalTmp := journal + ".tmp-1"
	for _, path := range []string{journal, journalTmp} {
		if err := os.WriteFile(path, journalBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkJournal := func(when string) {
		t.Helper()
		if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, journalBytes) {
			t.Fatalf("%s: history.jsonl = %q, %v; want it untouched", when, got, err)
		}
		if _, err := os.Stat(journalTmp); !os.IsNotExist(err) {
			t.Fatalf("%s: %s not swept: %v", when, filepath.Base(journalTmp), err)
		}
	}

	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sys2 := store2.System()
	if sys2 == nil {
		t.Fatal("no System recovered")
	}
	if got := sys2.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	checkJournal("after reopen")
	stats := store2.RecoveryStats()
	if !stats.Recovered || stats.ReplayedTxns != crashScriptSteps {
		t.Fatalf("recovery stats = %+v", stats)
	}
	assertSameWorkload(t, "recovered", sys2, oracleAt(t, seed, crashScriptSteps))
	if got := fingerprint(sys2); !sameFP(got, wantFP) {
		t.Fatalf("recovered solves diverge: %+v vs %+v", got, wantFP)
	}
	// The recovered store accepts new durable writes on the resumed log.
	if err := applyCrashStep(ctx, sys2, 0); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if got := sys2.Epoch(); got != wantEpoch+1 {
		t.Fatalf("post-recovery epoch %d, want %d", got, wantEpoch+1)
	}
	if err := store2.CheckpointCtx(ctx); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	checkJournal("after a checkpoint")
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	const seed = 12
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashScriptSteps; i++ {
		if i == crashCheckpointBefore {
			if err := store.CheckpointCtx(ctx); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		if err := applyCrashStep(ctx, sys, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	stats := store2.RecoveryStats()
	if stats.CheckpointEpoch != crashCheckpointBefore {
		t.Fatalf("checkpoint epoch %d, want %d", stats.CheckpointEpoch, crashCheckpointBefore)
	}
	if stats.ReplayedTxns != crashScriptSteps-crashCheckpointBefore {
		t.Fatalf("replayed %d txns, want %d", stats.ReplayedTxns, crashScriptSteps-crashCheckpointBefore)
	}
	if got := store2.System().Epoch(); got != crashScriptSteps {
		t.Fatalf("epoch %d, want %d", got, crashScriptSteps)
	}
	assertSameWorkload(t, "checkpointed", store2.System(), oracleAt(t, seed, crashScriptSteps))
	// An idempotent second checkpoint at the same epoch is a no-op.
	if err := store2.CheckpointCtx(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAttachNewGenerationReplacesOld(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	first := durFixture(t, 21)
	if err := store.Attach(ctx, first); err != nil {
		t.Fatal(err)
	}
	if err := applyCrashStep(ctx, first, 0); err != nil {
		t.Fatal(err)
	}
	second := durFixture(t, 22)
	if err := store.Attach(ctx, second); err != nil {
		t.Fatal(err)
	}
	if store.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", store.Generation())
	}
	// The detached first System refuses further writes: its log is closed.
	if err := applyCrashStep(ctx, first, 1); err == nil {
		t.Fatal("write to detached System should fail")
	}
	if err := applyCrashStep(ctx, second, 0); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 1's files are gone; recovery lands on generation 2.
	if _, err := os.Stat(filepath.Join(dir, checkpointName(1))); !os.IsNotExist(err) {
		t.Fatalf("old checkpoint still present: %v", err)
	}
	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Generation() != 2 {
		t.Fatalf("recovered generation %d, want 2", store2.Generation())
	}
	want := durFixture(t, 22)
	if err := applyCrashStep(ctx, want, 0); err != nil {
		t.Fatal(err)
	}
	assertSameWorkload(t, "generation 2", store2.System(), want)
}

func TestWritesFailAfterStoreClose(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, 31)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := applyCrashStep(ctx, sys, 0); err == nil {
		t.Fatal("write after Close should fail, not silently lose durability")
	}
	// Reads still work.
	if n := sys.NumObjects(); n == 0 {
		t.Fatal("reads should survive Close")
	}
}

func TestWALWithoutCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Create(dir, 1, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]wal.Record{{Epoch: 1, Kind: wal.KindMutation, Body: []byte("orphan")}})
	l.Close()
	if _, err := OpenCtx(context.Background(), dir, quietOpts(FsyncAlways)); err == nil {
		t.Fatal("orphan WAL without a checkpoint must refuse to open")
	}
}

// crashRun drives the whole durable lifecycle — attach, scripted mutations,
// mid-script checkpoint, close — with a crash injected at the boundary
// numbered crashAt (1-based hook firing). It returns how many script steps
// were acknowledged and whether the crash fired. crashAt = 0 disables
// injection (the counting run); the total number of boundaries is returned
// in fired.
func crashRun(t *testing.T, dir string, seed int64, pol FsyncPolicy, crashAt int) (acked, fired int, crashed bool) {
	t.Helper()
	ctx := context.Background()
	dead := false
	restore := wal.SetCrashHook(func(point string) error {
		if dead {
			return wal.ErrInjectedCrash
		}
		fired++
		if crashAt > 0 && fired == crashAt {
			dead = true
			return wal.ErrInjectedCrash
		}
		return nil
	})
	defer restore()

	store, err := OpenCtx(ctx, dir, quietOpts(pol))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	die := func() (int, int, bool) {
		store.abort() // kill -9: no final fsync, written bytes stay
		return acked, fired, true
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		if !dead {
			t.Fatalf("Attach: %v", err)
		}
		return die()
	}
	for i := 0; i < crashScriptSteps; i++ {
		if i == crashCheckpointBefore {
			if err := store.CheckpointCtx(ctx); err != nil {
				if !dead {
					t.Fatalf("Checkpoint: %v", err)
				}
				return die()
			}
		}
		if err := applyCrashStep(ctx, sys, i); err != nil {
			if !dead {
				t.Fatalf("step %d: %v", i, err)
			}
			return die()
		}
		acked = i + 1
	}
	if err := store.Close(); err != nil {
		if !dead {
			t.Fatalf("Close: %v", err)
		}
		return acked, fired, true
	}
	return acked, fired, dead
}

// TestCrashInjectionProperty is the acceptance property: for every
// record/fsync/rename/checkpoint boundary the durability path crosses, a
// process death at exactly that boundary recovers to an epoch in
// [acknowledged, attempted], with the workload and MinCost/MaxHit answers
// bit-identical to an uncrashed oracle run to that same epoch.
func TestCrashInjectionProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	policies := []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff}
	if testing.Short() {
		seeds = seeds[:1]
		policies = policies[:1]
	}
	for _, seed := range seeds {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("seed=%d/fsync=%v", seed, pol), func(t *testing.T) {
				// Counting run: how many crash boundaries does the full
				// lifecycle cross under this seed and policy?
				_, total, crashed := crashRun(t, t.TempDir(), seed, pol, 0)
				if crashed || total == 0 {
					t.Fatalf("counting run: crashed=%v boundaries=%d", crashed, total)
				}
				for k := 1; k <= total; k++ {
					dir := t.TempDir()
					acked, _, crashed := crashRun(t, dir, seed, pol, k)
					if !crashed {
						t.Fatalf("injection point %d/%d never fired", k, total)
					}

					store, err := OpenCtx(context.Background(), dir, quietOpts(pol))
					if err != nil {
						t.Fatalf("point %d: recovery failed: %v", k, err)
					}
					sys := store.System()
					if sys == nil {
						if acked != 0 {
							t.Fatalf("point %d: %d acked writes but no dataset recovered", k, acked)
						}
						store.Close()
						continue
					}
					epoch := int(sys.Epoch())
					if epoch < acked || epoch > min(acked+1, crashScriptSteps) {
						t.Fatalf("point %d: recovered epoch %d outside [%d, %d]",
							k, epoch, acked, min(acked+1, crashScriptSteps))
					}
					oracle := oracleAt(t, seed, epoch)
					assertSameWorkload(t, fmt.Sprintf("point %d (epoch %d)", k, epoch), sys, oracle)
					if got, want := fingerprint(sys), fingerprint(oracle); !sameFP(got, want) {
						t.Fatalf("point %d: solves diverge at epoch %d: %+v vs %+v", k, epoch, got, want)
					}
					store.Close()
				}
				t.Logf("verified %d injection points", total)
			})
		}
	}
}

// TestTornTailFuzzer corrupts the WAL tail — random truncations and bit
// flips — and asserts recovery never panics and never silently diverges:
// either Open fails loudly, or the recovered state equals the uncrashed
// oracle truncated to the recovered epoch.
func TestTornTailFuzzer(t *testing.T) {
	const seed = 7
	base := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, base, quietOpts(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashScriptSteps; i++ {
		if err := applyCrashStep(ctx, sys, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(base, 1)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	pristine, err := os.ReadFile(segs[len(segs)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[len(segs)-1].Path)
	cpName := checkpointName(1)
	cpData, err := os.ReadFile(filepath.Join(base, cpName))
	if err != nil {
		t.Fatal(err)
	}

	cases := 80
	if testing.Short() {
		cases = 20
	}
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < cases; c++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cpName), cpData, 0o644); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), pristine...)
		switch rng.Intn(3) {
		case 0: // truncate at a random offset
			data = data[:rng.Intn(len(data)+1)]
		case 1: // flip 1-3 random bits
			for f := 0; f <= rng.Intn(3); f++ {
				pos := rng.Intn(len(data))
				data[pos] ^= 1 << uint(rng.Intn(8))
			}
		default: // truncate and append garbage
			data = append(data[:rng.Intn(len(data)+1)], byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		if err := os.WriteFile(filepath.Join(dir, segName), data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
		if err != nil {
			// A loud failure is acceptable; a panic or silent divergence is not.
			continue
		}
		rec := st.System()
		if rec == nil {
			t.Fatalf("case %d: checkpoint present but no System recovered", c)
		}
		epoch := int(rec.Epoch())
		if epoch > crashScriptSteps {
			t.Fatalf("case %d: recovered epoch %d beyond uncorrupted history %d", c, epoch, crashScriptSteps)
		}
		oracle := oracleAt(t, seed, epoch)
		assertSameWorkload(t, fmt.Sprintf("fuzz case %d (epoch %d)", c, epoch), rec, oracle)
		if got, want := fingerprint(rec), fingerprint(oracle); !sameFP(got, want) {
			t.Fatalf("case %d: solves diverge at epoch %d", c, epoch)
		}
		st.Close()
	}
}

func TestSaveFileLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	sys := durFixture(t, 41)
	path := filepath.Join(dir, "snap.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No tmp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(entries))
	}
	loaded, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWorkload(t, "SaveFile/LoadFile", loaded, sys)
	if loaded.Epoch() != sys.Epoch() {
		t.Fatalf("epoch %d, want %d", loaded.Epoch(), sys.Epoch())
	}
	// Overwrite keeps the old file intact until the new one is complete:
	// after a second save the file still loads.
	if err := sys.CommitCtx(context.Background(), 0, Vector{-0.01, -0.01, -0.01}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Epoch() != sys.Epoch() {
		t.Fatalf("reloaded epoch %d, want %d", reloaded.Epoch(), sys.Epoch())
	}
}

// TestRepeatedRecoveryAfterRotationCrash is the end-to-end double-restart
// regression: a headerless segment left by a crash during checkpoint
// rotation must not wedge the store after the SECOND restart — the first
// recovery has to sweep it, not just skip past it.
func TestRepeatedRecoveryAfterRotationCrash(t *testing.T) {
	const seed = 51
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := applyCrashStep(ctx, sys, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	store.abort() // kill -9
	// The rotation-crash artifact: the next segment exists but never got its
	// header onto disk.
	segs, err := wal.ListSegments(dir, 1)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	next := segs[len(segs)-1].Seq + 1
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1, next)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	store1, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	if err := applyCrashStep(ctx, store1.System(), 3); err != nil {
		t.Fatalf("post-recovery step: %v", err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Before the fix this Open failed with "segment shorter than header" —
	// permanently, until an operator deleted the leftover by hand.
	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer store2.Close()
	if got := store2.System().Epoch(); got != 4 {
		t.Fatalf("recovered epoch %d, want 4", got)
	}
	assertSameWorkload(t, "second restart", store2.System(), oracleAt(t, seed, 4))
}

// TestTransientCheckpointReadErrorAbortsRecovery: a newest checkpoint that
// fails to READ (as opposed to failing to decode) must abort Open without
// pruning anything — falling back to the older generation would delete the
// newer one's acknowledged history over a fault a retry could clear.
func TestTransientCheckpointReadErrorAbortsRecovery(t *testing.T) {
	const seed = 61
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if err := applyCrashStep(ctx, sys, 0); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A directory in place of a newer generation's checkpoint: os.Open
	// succeeds, every read fails with EISDIR — an I/O fault, not provable
	// corruption.
	bogus := filepath.Join(dir, checkpointName(2))
	if err := os.Mkdir(bogus, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways)); err == nil {
		t.Fatal("transient checkpoint read error must abort recovery, not fall back")
	}

	// Nothing was pruned: clearing the fault recovers generation 1 intact.
	if err := os.Remove(bogus); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatalf("recovery after clearing fault: %v", err)
	}
	defer store2.Close()
	if store2.Generation() != 1 || store2.System().Epoch() != 1 {
		t.Fatalf("recovered generation %d epoch %d, want 1/1",
			store2.Generation(), store2.System().Epoch())
	}
	assertSameWorkload(t, "after fault cleared", store2.System(), oracleAt(t, seed, 1))
}

// TestCorruptNewerCheckpointFallsBack: garbage bytes in a newer generation's
// checkpoint are provably corrupt, so recovery falls back to the previous
// generation and prunes the bad one.
func TestCorruptNewerCheckpointFallsBack(t *testing.T) {
	const seed = 62
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	sys := durFixture(t, seed)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if err := applyCrashStep(ctx, sys, 0); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(dir, checkpointName(2))
	if err := os.WriteFile(bogus, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatalf("recovery should fall back past a corrupt checkpoint: %v", err)
	}
	defer store2.Close()
	if store2.Generation() != 1 || store2.System().Epoch() != 1 {
		t.Fatalf("recovered generation %d epoch %d, want 1/1",
			store2.Generation(), store2.System().Epoch())
	}
	assertSameWorkload(t, "fallback", store2.System(), oracleAt(t, seed, 1))
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Fatalf("corrupt checkpoint not pruned: %v", err)
	}
}

// TestConcurrentAttach: Attach is safe for concurrent use — calls serialise,
// each takes its own generation, and recovery lands on whichever dataset won.
// Before the attach mutex two racers shared gen+1: the loser overwrote the
// winner's checkpoint and then failed creating the same WAL file.
func TestConcurrentAttach(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	const attachers = 4
	systems := make([]*System, attachers)
	for i := range systems {
		systems[i] = durFixture(t, int64(70+i))
	}
	errs := make([]error, attachers)
	var wg sync.WaitGroup
	for i := 0; i < attachers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = store.Attach(ctx, systems[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Attach %d: %v", i, err)
		}
	}
	if got := store.Generation(); got != attachers {
		t.Fatalf("generation %d after %d attaches, want %d", got, attachers, attachers)
	}
	final := store.System()
	if err := applyCrashStep(ctx, final, 0); err != nil {
		t.Fatalf("write to final attached System: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenCtx(ctx, dir, quietOpts(FsyncAlways))
	if err != nil {
		t.Fatalf("recovery after concurrent attaches: %v", err)
	}
	defer store2.Close()
	if store2.Generation() != attachers {
		t.Fatalf("recovered generation %d, want %d", store2.Generation(), attachers)
	}
	assertSameWorkload(t, "concurrent attach winner", store2.System(), final)
}
