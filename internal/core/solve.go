package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file solves the per-query subproblem shared by Algorithms 3 and 4:
// the minimum-cost strategy that makes the (already partially improved)
// target enter one query's top-k result (Equations 13–14). Linear spaces
// have closed forms through Cost.MinToHalfspace; non-linear embedding spaces
// are handled with iterative linearisation (finite-difference Jacobian +
// halfspace projection), verified against the true embedding.

// ErrGoalUnreachable is returned when the desired hit count cannot be
// reached (e.g. attribute bounds freeze the object, or τ exceeds the query
// count).
var ErrGoalUnreachable = errors.New("core: improvement goal unreachable")

// strictMargin keeps the improved score strictly below the k-th score, as
// Equation 6 demands. It is deliberately larger than floating-point noise:
// minimum-cost strategies land exactly on constraint boundaries, and the
// evaluator's sign computations (normal-vector dot products) round
// differently from scalar score comparisons, so a knife-edge solution could
// otherwise flip between "hit" and "miss" across code paths.
func strictMargin(t float64) float64 {
	return 1e-7 * (1 + absF(t))
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// probeScratch is one worker's reusable buffers for the per-probe subproblem
// (solveHit's shifted coefficients and bounds). A probeScratch is owned by
// one goroutine; callers without one may pass nil and pay the original
// allocations.
type probeScratch struct {
	coeff  vec.Vector // coeff(target)+cur for the linear closed form
	lo, hi vec.Vector // shifted bounds backing stores
	bounds Bounds     // aliases lo/hi so no Bounds escapes per probe
}

// solveHit finds a low-cost cumulative strategy u (relative to the target's
// original attributes) such that the target improved by u hits query j,
// against the threshold in the target's hit table tab.
// cur is the currently accumulated strategy; the returned u extends it
// (u = cur for queries already hit). The cost minimised is Cost(u), the
// total cost of the final strategy, matching Definitions 2–3.
func solveHit(w *topk.Workload, tab *hitTable, cur vec.Vector, j int, cost Cost, bounds *Bounds, sc *probeScratch, rec *recorder) (vec.Vector, error) {
	space := w.Space()
	q := w.Query(j)
	target := tab.target
	threshold, bounded := tab.threshold(j)
	if tab.stored {
		mThresholdCacheHits.Inc()
		rec.thresholdHit()
	}
	if !bounded {
		return vec.Clone(cur), nil // fewer than k competitors: already hit
	}
	if space.Linear() {
		// Incremental step from the current improved position p' = p+cur
		// (Algorithm 3 line 5 solves from p', not from the original p):
		// q·(p + cur + δ) < threshold  ⇔  q·δ ≤ rhs. With non-negative
		// query weights the minimal L2 step only decreases attribute
		// values, so previously gained hits are preserved.
		//
		// Every arithmetic step below matches the scratch-free formulation
		// (vec.Add/vec.Sub temporaries) term by term, so enabling scratch
		// reuse cannot change a single bit of the result.
		coeff := w.Coeff(target)
		var coeffCur vec.Vector
		if sc != nil {
			coeffCur = growVec(sc.coeff, len(coeff))
			sc.coeff = coeffCur
			for i := range coeff {
				coeffCur[i] = coeff[i] + cur[i]
			}
		} else {
			coeffCur = vec.Add(coeff, cur)
		}
		rhs := threshold - vec.Dot(coeffCur, q.Point) - strictMargin(threshold)
		var shifted *Bounds
		if bounds != nil {
			if sc != nil {
				sc.lo = growVec(sc.lo, len(bounds.Lo))
				sc.hi = growVec(sc.hi, len(bounds.Hi))
				for i := range bounds.Lo {
					sc.lo[i] = bounds.Lo[i] - cur[i]
					sc.hi[i] = bounds.Hi[i] - cur[i]
				}
				sc.bounds = Bounds{Lo: sc.lo, Hi: sc.hi}
				shifted = &sc.bounds
			} else {
				shifted = &Bounds{Lo: vec.Sub(bounds.Lo, cur), Hi: vec.Sub(bounds.Hi, cur)}
			}
		}
		delta, err := cost.MinToHalfspace(q.Point, rhs, shifted)
		if err != nil {
			return nil, err
		}
		// Every MinToHalfspace implementation returns a fresh vector, so
		// accumulating cur into it in place is safe, and float addition is
		// commutative, so delta+cur is bit-identical to vec.Add(cur, delta).
		vec.AddInPlace(delta, cur)
		return delta, nil
	}
	return solveHitNonLinear(w, target, cur, q, threshold, cost, bounds)
}

// finiteStep reports whether a probe's strategy u and its cost c are finite.
// The numeric minimiser behind an expression cost can run off towards
// infinity on a non-convex cost or extreme data, and an expression can
// overflow or leave its domain; such a step has no cost to rank, so the
// probe is pruned.
func finiteStep(u vec.Vector, c float64) bool {
	return vec.AllFinite(u) && !math.IsInf(c, 0) && !math.IsNaN(c)
}

// growVec returns v resized to d, reusing its backing array when possible.
// Contents are unspecified — callers overwrite every element.
func growVec(v vec.Vector, d int) vec.Vector {
	if cap(v) < d {
		return make(vec.Vector, d)
	}
	return v[:d]
}

// solveHitNonLinear iteratively linearises the embedding around the current
// strategy: an SQP-style loop solving a halfspace subproblem against the
// finite-difference Jacobian of score(s) = q·Embed(p+s).
func solveHitNonLinear(w *topk.Workload, target int, cur vec.Vector, q topk.Query, threshold float64, cost Cost, bounds *Bounds) (vec.Vector, error) {
	p := w.Attrs(target)
	d := len(p)
	score := func(u vec.Vector) (float64, error) {
		coeff, err := w.Space().Embed(vec.Add(p, u))
		if err != nil {
			return 0, err
		}
		return vec.Dot(coeff, q.Point), nil
	}
	u := vec.Clone(cur)
	margin := strictMargin(threshold)
	for iter := 0; iter < 25; iter++ {
		f, err := score(u)
		if err != nil {
			return nil, fmt.Errorf("core: non-linear solve: %w", err)
		}
		if f < threshold-margin/2 {
			return u, nil
		}
		// Finite-difference gradient of the score w.r.t. the strategy.
		grad := make(vec.Vector, d)
		h := 1e-6
		for i := 0; i < d; i++ {
			up := vec.Clone(u)
			up[i] += h
			fp, err := score(up)
			if err != nil {
				// One-sided fallback the other way (e.g. sqrt domain).
				up[i] = u[i] - h
				fm, err2 := score(up)
				if err2 != nil {
					return nil, fmt.Errorf("core: non-linear solve gradient: %w", err)
				}
				grad[i] = (f - fm) / h
				continue
			}
			grad[i] = (fp - f) / h
		}
		if vec.Norm2(grad) < 1e-12 {
			return nil, ErrGoalUnreachable
		}
		// Linear model: f + grad·δ ≤ threshold − margin.
		rhs := threshold - margin - f
		// Solve for δ relative to u; bounds shift by u.
		var shifted *Bounds
		if bounds != nil {
			shifted = &Bounds{Lo: vec.Sub(bounds.Lo, u), Hi: vec.Sub(bounds.Hi, u)}
		}
		delta, err := cost.MinToHalfspace(grad, rhs, shifted)
		if err != nil {
			return nil, err
		}
		if vec.Norm2(delta) < 1e-14 {
			// The linear model thinks we are done but the true score
			// disagrees; nudge the margin.
			margin *= 2
			continue
		}
		// Damped step to keep the linearisation honest.
		vec.AddInPlace(u, vec.Scale(delta, 0.9))
	}
	// Final verification.
	if f, err := score(u); err == nil && f < threshold {
		return u, nil
	}
	return nil, ErrGoalUnreachable
}

// Candidate is one probe of the greedy search: the cumulative strategy, its
// total cost, and its evaluated hit count.
type Candidate struct {
	Query    int
	Strategy vec.Vector
	Cost     float64
	Hits     int
}

// roundScratch carries the buffers one solve reuses across its greedy
// rounds: the unhit worklist, the slot-indexed result arrays, the surviving
// candidate slice handed back to the caller, and per-worker probe/embed
// scratch. One roundScratch is owned by one solve; the candidate slice it
// returns is only valid until the next generateCandidates call.
type roundScratch struct {
	unhit   []int
	results []Candidate
	valid   []bool
	cands   []Candidate
	probes  []probeScratch // indexed by worker
	embed   []vec.Vector   // per-worker improved-coefficient buffers
}

// generateCandidates implements the shared inner loop of Algorithms 3 and 4
// (lines 4–8): for every query not currently hit, the min-cost strategy that
// hits it, with its hit count from the target's hit table tab. With more
// than one worker the per-query work fans out across goroutines, which
// share the read-only table; each worker owns one probeScratch and embed
// buffer.
//
// The returned slice aliases rs.cands and is overwritten by the next call;
// the Strategy vectors inside it are freshly allocated per probe and safe to
// retain. Bit-for-bit determinism is preserved: probes still land in
// slot-indexed order and the scratch paths reproduce the original arithmetic
// exactly.
//
// Cancellation is checked before every probe, serial or parallel: workers
// stop picking up slots as soon as ctx fails, and a cancelled fan-out
// returns a nil candidate slice with the translated context error, so the
// solvers discard the round's partial work instead of greedily applying a
// winner chosen from whatever subset happened to finish.
func generateCandidates(ctx context.Context, w *topk.Workload, tab *hitTable, workers int, cur vec.Vector, hit *bitset.Bits, cost Cost, bounds *Bounds, rs *roundScratch, rec *recorder) ([]Candidate, error) {
	rs.unhit = rs.unhit[:0]
	for j := 0; j < w.NumQueries(); j++ {
		if !hit.Get(j) && !w.IsQueryRemoved(j) {
			rs.unhit = append(rs.unhit, j)
		}
	}
	unhit := rs.unhit
	ctx, csp := obs.StartSpan(ctx, "candidates")
	csp.SetAttr("unhit", len(unhit))
	csp.SetAttr("workers", workers)
	defer csp.End()
	if cap(rs.results) < len(unhit) {
		rs.results = make([]Candidate, len(unhit))
		rs.valid = make([]bool, len(unhit))
	}
	results := rs.results[:len(unhit)]
	valid := rs.valid[:len(unhit)]
	for i := range valid {
		valid[i] = false
	}
	if len(rs.probes) < workers {
		rs.probes = make([]probeScratch, workers)
		rs.embed = make([]vec.Vector, workers)
	}
	linear := w.Space().Linear()
	attrs := w.Attrs(tab.target)
	probe := func(pctx context.Context, wkr, slot int) {
		fireProbe(slot)
		t0 := rec.probeStart()
		j := unhit[slot]
		pctx, psp := obs.StartSpan(pctx, "probe")
		psp.SetAttr("query", j)
		u, err := solveHit(w, tab, cur, j, cost, bounds, &rs.probes[wkr], rec)
		t1 := rec.solveDone(t0)
		if err != nil {
			rec.pruned.Add(1)
			psp.SetAttr("pruned", "infeasible")
			psp.End()
			return // infeasible for this query (e.g. bounds); skip
		}
		if !bounds.Contains(u) {
			rec.pruned.Add(1)
			psp.SetAttr("pruned", "bounds")
			psp.End()
			return
		}
		c := cost.Of(u)
		if !finiteStep(u, c) {
			rec.pruned.Add(1)
			psp.SetAttr("pruned", "nonfinite")
			psp.End()
			return
		}
		var coeff vec.Vector
		if linear {
			// A linear space's Embed is the identity (a dimension check plus
			// a clone), so the improved coefficients can be summed straight
			// into the worker's buffer — same values, no temporaries.
			buf := growVec(rs.embed[wkr], len(attrs))
			rs.embed[wkr] = buf
			for i := range attrs {
				buf[i] = attrs[i] + u[i]
			}
			coeff = buf
		} else {
			coeff, err = w.Space().Embed(vec.Add(attrs, u))
			if err != nil {
				rec.pruned.Add(1)
				psp.SetAttr("pruned", "embed")
				psp.End()
				return
			}
		}
		_, esp := obs.StartSpan(pctx, "eval")
		h := tab.hits(coeff)
		esp.SetAttr("hits", h)
		esp.End()
		rec.evalDone(t1)
		results[slot] = Candidate{Query: j, Strategy: u, Cost: c, Hits: h}
		valid[slot] = true
		psp.End()
	}
	if workers <= 1 || len(unhit) < 2*workers {
		for slot := range unhit {
			if ctx.Err() != nil {
				break
			}
			probe(ctx, 0, slot)
		}
	} else {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				wctx, wsp := obs.StartSpan(ctx, "worker")
				wsp.SetAttr("worker", wkr)
				defer wsp.End()
				for slot := wkr; slot < len(unhit); slot += workers {
					if ctx.Err() != nil {
						return
					}
					probe(wctx, wkr, slot)
				}
			}(wkr)
		}
		wg.Wait()
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	rs.cands = rs.cands[:0]
	for slot, c := range results {
		if valid[slot] {
			rs.cands = append(rs.cands, c)
		}
	}
	return rs.cands, nil
}

// clampWorkers bounds a request's Workers knob to sane values: anything
// below 1 (including negative) means serial, and there is no point starting
// more workers than there are queries to probe or CPUs to run them on.
// GOMAXPROCS is the throughput ceiling, but at least two workers are always
// allowed so the concurrent path stays exercised (and race-testable) on
// single-CPU hosts — extra goroutines are harmless there, just not faster.
func clampWorkers(workers, queries int) int {
	if workers < 1 {
		return 1
	}
	ceil := runtime.GOMAXPROCS(0)
	if ceil < 2 {
		ceil = 2
	}
	if workers > ceil {
		workers = ceil
	}
	if queries > 0 && workers > queries {
		workers = queries
	}
	return workers
}

// bestRatio returns the candidate minimising cost per hit (Algorithm 3
// line 9 / Algorithm 4 line 9); candidates that gain no hits are skipped.
// Ties are broken deterministically — lower cost, then lower query index —
// so parallel and serial candidate generation always pick the same winner
// (see DESIGN.md, "Deterministic parallelism").
func bestRatio(cands []Candidate, baseHits int) (Candidate, bool) {
	best := Candidate{}
	bestVal := 0.0
	found := false
	for _, c := range cands {
		if c.Hits <= baseHits {
			continue // no progress; a ratio over stale hits would stall
		}
		ratio := c.Cost / float64(c.Hits)
		better := !found || ratio < bestVal ||
			(ratio == bestVal && (c.Cost < best.Cost ||
				(c.Cost == best.Cost && c.Query < best.Query)))
		if better {
			best, bestVal, found = c, ratio, true
		}
	}
	return best, found
}
