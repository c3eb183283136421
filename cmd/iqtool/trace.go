package main

// -trace FILE runs a demo Min-Cost solve locally under a Trace, validates
// it, and writes the span tree as Perfetto-loadable Chrome trace_event
// JSON — the quickest way to look at the engine's execution profile without
// standing up a server.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"

	"iq"
	"iq/internal/dataset"
	"iq/internal/obs"
)

// traceSpanNames are the engine stages a demo Min-Cost solve must record;
// depth 3 is the solve → round → probe nesting.
var traceSpanNames = []string{"solve/mincost", "round", "probe", "eval", "table/build"}

const traceMinDepth = 3

// demoWorkload generates the deterministic demo dataset that -trace and the
// -crash-* modes solve against.
func demoWorkload(seed int64) ([]iq.Vector, []iq.Query) {
	rng := rand.New(rand.NewSource(seed))
	objsRaw := dataset.Objects(dataset.Independent, 200, 3, rng)
	objs := make([]iq.Vector, len(objsRaw))
	for i, o := range objsRaw {
		objs[i] = iq.Vector(o)
	}
	return objs, dataset.UNQueries(80, 3, 5, true, rng)
}

// traceLocal runs the demo solve in-process under a trace and writes the
// trace_event JSON to path, validating it first.
func traceLocal(path string, seed int64) error {
	objs, queries := demoWorkload(seed)
	tr := iq.NewTrace("mincost", 0)
	ctx := iq.WithTrace(context.Background(), tr)
	sys, err := iq.NewWithOptionsCtx(ctx, iq.LinearSpace{D: 3}, objs, queries, iq.IndexOptions{})
	if err != nil {
		return err
	}
	res, err := sys.MinCostCtx(ctx, iq.MinCostRequest{Target: 5, Tau: 8, Cost: iq.L2Cost{}})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := iq.WriteTraceEvent(&buf, tr); err != nil {
		return err
	}
	parsed, err := obs.ValidateTraceEvent(buf.Bytes(), traceSpanNames, traceMinDepth)
	if err != nil {
		return fmt.Errorf("generated trace invalid: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("traced local solve (hits=%d, rounds=%d): %d events, depth %d -> %s\n",
		res.Hits, res.Stats.Rounds, parsed.Events, parsed.MaxDepth, path)
	return nil
}
