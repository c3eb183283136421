package core

// This file is the solver-side flight recorder: every public solve returns
// per-solve SolveStats inside its Result (greedy rounds, candidate probes,
// prune counts, exact hit counts, wall time per stage) and feeds the
// process-wide obs registry (solve totals by outcome, duration histograms,
// threshold-cache hits) so /metrics shows where time goes. Collection must
// never perturb results — the recorder only counts and times; it makes no
// decisions. A greedy round adds to it once per pass over the table and
// once per selection pass, and each exact hit count once; the process-wide
// series are published once per solve.

import (
	"context"
	"errors"
	"sync"
	"time"

	"iq/internal/obs"
)

// SolveStats profiles one solve. Stage wall times cover the two halves of
// the greedy search: SolveHitWall is candidate generation — each round's
// pass over the threshold table with its bounds, and the per-query min-cost
// subproblem (Equations 13–14) of every probe solved with its hit bound —
// and EvalWall the exact Eq. 6 hit counts against the threshold table.
type SolveStats struct {
	// Rounds counts greedy iterations (Algorithm 3/4 outer loops).
	Rounds int `json:"rounds"`
	// Probes counts per-query candidate solves attempted, including ones
	// discarded as infeasible. A probe is counted when it is solved, not
	// once per unhit query: a greedy round solves only the probes whose
	// bounds let them reach the head of its selection order.
	Probes int `json:"probes"`
	// Pruned counts probes discarded before ranking: the per-query
	// subproblem was infeasible, violated bounds, or failed to embed.
	Pruned int `json:"pruned"`
	// Candidates counts probes ranked: those solved that survived to a hit
	// bound. Pruned + Candidates = Probes.
	Candidates int `json:"candidates"`
	// Counted counts exact hit counts: the candidates a round had to count
	// to pick its winner (every candidate, for the multi-target solvers).
	Counted int `json:"counted"`
	// Wall is the solve's total wall time.
	Wall time.Duration `json:"wall_ns"`
	// SolveHitWall accumulates wall time in candidate generation: each
	// round's pass, and its selection passes net of their exact counts —
	// the per-query min-cost subproblems solved, with their hit bounds.
	SolveHitWall time.Duration `json:"solve_hit_wall_ns"`
	// EvalWall accumulates time in exact hit counts.
	EvalWall time.Duration `json:"eval_wall_ns"`
	// ThresholdCacheHits counts hit-threshold lookups served from the
	// target's hit table stored on the snapshot; ThresholdCacheMisses counts
	// the table rows this solve derived from the index rows because the
	// snapshot had no stored table for the target. A solve with misses
	// derived its table: it ran cold.
	ThresholdCacheHits   int `json:"threshold_cache_hits"`
	ThresholdCacheMisses int `json:"threshold_cache_misses"`
	// CancelCause is "" for a completed solve, "canceled" or "deadline"
	// when the context stopped it (the Result is nil then; the cause still
	// reaches the metrics and, for multi-solves, the partial stats).
	CancelCause string `json:"cancel_cause,omitempty"`
}

// recorder accumulates one solve's counters. A solve runs on its caller's
// goroutine, so one goroutine owns each recorder.
type recorder struct {
	probes  int64
	pruned  int64
	cands   int64
	counted int64
	solve   int64 // ns in candidate generation
	eval    int64 // ns in exact hit counts
	// Threshold-cache traffic attributable to this solve; finishSolve
	// publishes the hits to the process-wide counter.
	thrHits   int64
	thrMisses int64
}

// thresholdHit records one threshold lookup served from a stored hit table.
// Nil-safe, like thresholdMisses.
func (r *recorder) thresholdHit() {
	if r != nil {
		r.thrHits++
	}
}

// thresholdMisses records n hit-table rows this solve derived. Nil-safe:
// counts outside a solve pass a nil recorder.
func (r *recorder) thresholdMisses(n int) {
	if r != nil {
		r.thrMisses += int64(n)
	}
}

func newRecorder() *recorder { return &recorder{} }

// probeStart returns the probe's start instant; the multi-target and
// exhaustive solvers time each probe.
func (r *recorder) probeStart() time.Time {
	r.probes++
	return time.Now()
}

func (r *recorder) solveDone(t0 time.Time) time.Time {
	t1 := time.Now()
	r.solve += t1.Sub(t0).Nanoseconds()
	return t1
}

// countDone records one exact hit count that started at t0.
func (r *recorder) countDone(t0 time.Time) {
	r.counted++
	r.eval += time.Since(t0).Nanoseconds()
}

func (r *recorder) stats(rounds int, wall time.Duration, err error) SolveStats {
	return SolveStats{
		Rounds:               rounds,
		Probes:               int(r.probes),
		Pruned:               int(r.pruned),
		Candidates:           int(r.cands),
		Counted:              int(r.counted),
		Wall:                 wall,
		SolveHitWall:         time.Duration(r.solve),
		EvalWall:             time.Duration(r.eval),
		ThresholdCacheHits:   int(r.thrHits),
		ThresholdCacheMisses: int(r.thrMisses),
		CancelCause:          cancelCause(err),
	}
}

func cancelCause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return ""
	}
}

// outcomeOf buckets a solve's error for the iq_solve_total counter.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrGoalUnreachable):
		return "unreachable"
	default:
		return "error"
	}
}

// startSolveSpan opens the root span for one solve ("solve/<op>"). It is a
// no-op returning a nil span unless the context carries a trace and tracing
// is enabled; endSolveSpan closes it with the solve's SolveStats as attrs so
// a trace cross-references the same counters /metrics aggregates.
func startSolveSpan(ctx context.Context, op string) (context.Context, *obs.Span) {
	return obs.StartSpan(ctx, "solve/"+op)
}

// endSolveSpan stamps the solve's outcome and work profile onto its root
// span and closes it. Nil-safe, like all span operations.
func endSolveSpan(sp *obs.Span, st SolveStats, err error) {
	if sp == nil {
		return
	}
	sp.SetAttr("outcome", outcomeOf(err))
	sp.SetAttr("rounds", st.Rounds)
	sp.SetAttr("probes", st.Probes)
	sp.SetAttr("pruned", st.Pruned)
	sp.SetAttr("candidates", st.Candidates)
	sp.SetAttr("counted", st.Counted)
	sp.SetAttr("solve_hit_wall", st.SolveHitWall)
	sp.SetAttr("eval_wall", st.EvalWall)
	sp.End()
}

// finishSolve publishes one solve's metrics and emits the engine's Debug log
// line (carrying the caller's request ID when the context has one), stamped
// with the solve's target; multi-target operations pass -1.
func finishSolve(ctx context.Context, op string, target int, start time.Time, rec *recorder, rounds int, err error) SolveStats {
	wall := time.Since(start)
	st := rec.stats(rounds, wall, err)
	m := solveSeriesFor(op, outcomeOf(err))
	m.total.Inc()
	m.duration.Observe(wall.Seconds())
	m.rounds.Add(int64(st.Rounds))
	m.probes.Add(int64(st.Probes))
	m.pruned.Add(int64(st.Pruned))
	mThresholdCacheHits.Add(int64(st.ThresholdCacheHits))
	obs.Log(ctx).DebugContext(ctx, "solve finished",
		"op", op,
		"target", target,
		"outcome", outcomeOf(err),
		"rounds", st.Rounds,
		"probes", st.Probes,
		"pruned", st.Pruned,
		"wall_ms", wall.Milliseconds(),
	)
	return st
}

// solveSeries are the process-wide series one (op, outcome) pair of solves
// publishes to.
type solveSeries struct {
	total                  *obs.Counter
	duration               *obs.Histogram
	rounds, probes, pruned *obs.Counter
}

// solveSeriesCache resolves each (op, outcome) pair's series once, on its
// first solve, so /metrics shows the same series as a lookup per solve
// would; a registry lookup renders and sorts its labels under the
// registry's process-wide lock.
var solveSeriesCache struct {
	sync.RWMutex
	m map[[2]string]*solveSeries
}

func solveSeriesFor(op, outcome string) *solveSeries {
	key := [2]string{op, outcome}
	solveSeriesCache.RLock()
	m := solveSeriesCache.m[key]
	solveSeriesCache.RUnlock()
	if m != nil {
		return m
	}
	m = &solveSeries{
		total: obs.Default.Counter("iq_solve_total",
			"Solves by operation and outcome.", "op", op, "outcome", outcome),
		duration: obs.Default.Histogram("iq_solve_duration_seconds",
			"Solve wall time by operation.", obs.SolveDurationBuckets, "op", op),
		rounds: obs.Default.Counter("iq_solve_rounds_total",
			"Greedy rounds executed.", "op", op),
		probes: obs.Default.Counter("iq_solve_probes_total",
			"Candidate probes attempted.", "op", op),
		pruned: obs.Default.Counter("iq_solve_pruned_total",
			"Candidate probes discarded before hit counting.", "op", op),
	}
	solveSeriesCache.Lock()
	defer solveSeriesCache.Unlock()
	if solveSeriesCache.m == nil {
		solveSeriesCache.m = map[[2]string]*solveSeries{}
	}
	solveSeriesCache.m[key] = m
	return m
}
