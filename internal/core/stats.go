package core

// This file is the solver-side flight recorder: every public solve returns
// per-solve SolveStats inside its Result (greedy rounds, candidate probes,
// prune counts, wall time per stage) and feeds the process-wide obs registry
// (solve totals by outcome, duration histograms) so /metrics shows where
// time goes. Collection must never perturb results — the recorder only
// counts and times; it makes no decisions — and costs a handful of atomic
// adds per probe, far below the LP solve each probe performs.

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"iq/internal/obs"
	"iq/internal/obs/workload"
	"iq/internal/subdomain"
)

// SolveStats profiles one solve. Stage wall times cover the two halves of
// every candidate probe: SolveHitWall is the per-query min-cost subproblem
// (Equations 13–14), EvalWall the ESE hit-count evaluation (Algorithm 2).
type SolveStats struct {
	// Rounds counts greedy iterations (Algorithm 3/4 outer loops).
	Rounds int `json:"rounds"`
	// Probes counts per-query candidate solves attempted, including ones
	// discarded as infeasible.
	Probes int `json:"probes"`
	// Pruned counts probes discarded before ESE evaluation: the per-query
	// subproblem was infeasible, violated bounds, or failed to embed.
	Pruned int `json:"pruned"`
	// Candidates counts probes that survived to an ESE evaluation.
	Candidates int `json:"candidates"`
	// Wall is the solve's total wall time.
	Wall time.Duration `json:"wall_ns"`
	// SolveHitWall accumulates time in per-query min-cost subproblems.
	SolveHitWall time.Duration `json:"solve_hit_wall_ns"`
	// EvalWall accumulates time in ESE hit-count evaluations.
	EvalWall time.Duration `json:"eval_wall_ns"`
	// ThresholdCacheHits/ThresholdCacheMisses count hit-threshold lookups
	// served from (resp. filled into) the cross-solve epoch-keyed cache.
	// Both stay zero when the solve caches are disabled.
	ThresholdCacheHits   int `json:"threshold_cache_hits"`
	ThresholdCacheMisses int `json:"threshold_cache_misses"`
	// CancelCause is "" for a completed solve, "canceled" or "deadline"
	// when the context stopped it (the Result is nil then; the cause still
	// reaches the metrics and, for multi-solves, the partial stats).
	CancelCause string `json:"cancel_cause,omitempty"`
}

// recorder accumulates one solve's counters. Probe-level fields are atomics
// because the candidate fan-out updates them from worker goroutines.
type recorder struct {
	probes atomic.Int64
	pruned atomic.Int64
	cands  atomic.Int64
	solve  atomic.Int64 // ns in solveHit
	eval   atomic.Int64 // ns in ESE evaluation
	// Threshold-cache traffic attributable to this solve (the process-wide
	// obs counters aggregate across solves).
	thrHits   atomic.Int64
	thrMisses atomic.Int64
	// rs/idx let finishSolve flush the solve's dense per-query attribution
	// table (roundScratch.counts) into per-region samples. Set by the first
	// generateCandidates call; nil for solves that never fan out
	// (exhaustive verifiers, multi-target solves). Only the solve goroutine
	// reads them, after the last fan-out has joined.
	rs  *roundScratch
	idx *subdomain.Index
}

// thresholdLookup records one cachedHitThreshold outcome. Nil-safe: callers
// outside a solve (the exhaustive verifier) pass a nil recorder.
func (r *recorder) thresholdLookup(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.thrHits.Add(1)
	} else {
		r.thrMisses.Add(1)
	}
}

func newRecorder() *recorder { return &recorder{} }

// maxRegionSamples bounds the per-solve attribution fan-out into the
// aggregator: the hottest regions (by probe count) are reported exactly and
// the tail is folded into one pre-aggregated overflow sample, so a solve
// over thousands of singleton regions costs a bounded number of slot
// updates. 16 keeps flush + RecordSolve inside the analytics overhead
// budget (≤2% of a warm solve) while still covering the per-region gauge
// fan-out /metrics publishes.
const maxRegionSamples = 16

// regionSamples folds the solve's dense per-query counts into per-region
// samples: the top-maxRegionSamples regions by probes exactly, the rest as
// one overflow sample. Regions group by the subdomain's representative
// query — a unique index in [0, NumQueries) — so the fold is in-place over
// the counts table with no map and no reflection-based sort.
func (r *recorder) regionSamples() []workload.RegionSample {
	rs, idx := r.rs, r.idx
	if rs == nil || len(rs.counts) == 0 {
		return nil
	}
	counts := rs.counts
	// Pass 1: fold every touched query's row into its subdomain
	// representative's row. Ungrouped queries have no region to charge and
	// are dropped, as before.
	for j := range counts {
		c := &counts[j]
		if c.probes == 0 && c.thrHits == 0 && c.thrMisses == 0 {
			continue
		}
		sd := idx.SubdomainOf(j)
		if sd == nil {
			*c = queryCounts{}
			continue
		}
		if rep := sd.Representative(); rep != j {
			dst := &counts[rep]
			dst.probes += c.probes
			dst.thrHits += c.thrHits
			dst.thrMisses += c.thrMisses
			*c = queryCounts{}
		}
	}
	// Pass 2: the surviving nonzero rows are exactly the touched
	// representatives, one per region.
	var live []int32
	for j := range counts {
		c := &counts[j]
		if c.probes != 0 || c.thrHits != 0 || c.thrMisses != 0 {
			live = append(live, int32(j))
		}
	}
	if len(live) == 0 {
		return nil
	}
	m := maxRegionSamples
	if len(live) <= m {
		m = len(live)
	} else {
		topKByProbes(live, counts, m)
	}
	out := make([]workload.RegionSample, 0, m+1)
	w := idx.Workload()
	for _, j := range live[:m] {
		c := &counts[j]
		sd := idx.SubdomainOf(int(j))
		out = append(out, workload.RegionSample{
			Region:    sd.Region,
			Pos:       w.Query(sd.Representative()).Point[0],
			Probes:    int64(c.probes),
			ThrHits:   int64(c.thrHits),
			ThrMisses: int64(c.thrMisses),
		})
	}
	if len(live) > m {
		tail := workload.RegionSample{Region: workload.OverflowRegion}
		for _, j := range live[m:] {
			c := &counts[j]
			tail.Probes += int64(c.probes)
			tail.ThrHits += int64(c.thrHits)
			tail.ThrMisses += int64(c.thrMisses)
		}
		out = append(out, tail)
	}
	return out
}

// topKByProbes partially orders live (quickselect, Hoare partition) so its
// first k entries are the k highest-probe rows. Deterministic: the pivot is
// positional and the input order (ascending query index) is fixed.
func topKByProbes(live []int32, counts []queryCounts, k int) {
	lo, hi := 0, len(live)
	for hi-lo > 1 {
		p := counts[live[(lo+hi)/2]].probes
		i, j := lo, hi-1
		for i <= j {
			for counts[live[i]].probes > p {
				i++
			}
			for counts[live[j]].probes < p {
				j--
			}
			if i <= j {
				live[i], live[j] = live[j], live[i]
				i++
				j--
			}
		}
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// probeStart returns the probe's start instant.
func (r *recorder) probeStart() time.Time {
	r.probes.Add(1)
	return time.Now()
}

func (r *recorder) solveDone(t0 time.Time) time.Time {
	t1 := time.Now()
	r.solve.Add(t1.Sub(t0).Nanoseconds())
	return t1
}

func (r *recorder) evalDone(t1 time.Time) {
	r.cands.Add(1)
	r.eval.Add(time.Since(t1).Nanoseconds())
}

func (r *recorder) stats(rounds int, wall time.Duration, err error) SolveStats {
	return SolveStats{
		Rounds:               rounds,
		Probes:               int(r.probes.Load()),
		Pruned:               int(r.pruned.Load()),
		Candidates:           int(r.cands.Load()),
		Wall:                 wall,
		SolveHitWall:         time.Duration(r.solve.Load()),
		EvalWall:             time.Duration(r.eval.Load()),
		ThresholdCacheHits:   int(r.thrHits.Load()),
		ThresholdCacheMisses: int(r.thrMisses.Load()),
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
	sp.SetAttr("solve_hit_wall", st.SolveHitWall)
	sp.SetAttr("eval_wall", st.EvalWall)
	sp.End()
}

// finishSolve publishes one solve's metrics and emits the engine's Debug log
// line (carrying the caller's request ID when the context has one). target
// feeds the workload analytics (target, op) attribution; multi-target
// operations pass -1.
func finishSolve(ctx context.Context, op string, target int, start time.Time, rec *recorder, rounds int, err error) SolveStats {
	wall := time.Since(start)
	st := rec.stats(rounds, wall, err)
	workload.Default.RecordSolve(op, target, wall,
		int64(st.Rounds), int64(st.Probes),
		int64(st.ThresholdCacheHits), int64(st.ThresholdCacheMisses),
		rec.regionSamples())
	obs.Default.Counter("iq_solve_total",
		"Solves by operation and outcome.", "op", op, "outcome", outcomeOf(err)).Inc()
	obs.Default.Histogram("iq_solve_duration_seconds",
		"Solve wall time by operation.", obs.SolveDurationBuckets, "op", op).Observe(wall.Seconds())
	obs.Default.Counter("iq_solve_rounds_total",
		"Greedy rounds executed.", "op", op).Add(int64(st.Rounds))
	obs.Default.Counter("iq_solve_probes_total",
		"Candidate probes attempted.", "op", op).Add(int64(st.Probes))
	obs.Default.Counter("iq_solve_pruned_total",
		"Candidate probes discarded before ESE evaluation.", "op", op).Add(int64(st.Pruned))
	obs.Log(ctx).DebugContext(ctx, "solve finished",
		"op", op,
		"outcome", outcomeOf(err),
		"rounds", st.Rounds,
		"probes", st.Probes,
		"pruned", st.Pruned,
		"wall_ms", wall.Milliseconds(),
	)
	return st
}
