package iq

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

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

// TestTracedCommitRecordsIndexSpans checks the write path: a traced Commit
// records the index clone and the repartition work.
func TestTracedCommitRecordsIndexSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sys := smallSystem(t, rng, 80, 40)
	res, err := sys.MinCost(MinCostRequest{Target: 2, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTrace("commit", 0)
	ctx := WithTrace(context.Background(), tr)
	if err := sys.CommitCtx(ctx, 2, res.Strategy); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceEvent(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTraceEvent(buf.Bytes(),
		[]string{"index/clone", "index/update_object", "index/repartition"}, 2); err != nil {
		t.Fatalf("commit trace: %v\n%s", err, buf.String())
	}
}

// TestExhaustiveSolveStats asserts the work profile on the exhaustive path:
// subset enumeration probes every candidate subset, so Probes must cover
// Pruned + Candidates exactly and the wall clock must be recorded.
func TestExhaustiveSolveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sys := smallSystem(t, rng, 20, 8)
	res, err := sys.MinCostExhaustive(MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}})
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
	res, err := sys.MinCostMulti(specs, 10)
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
