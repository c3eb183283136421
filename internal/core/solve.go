package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

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
// total cost of the final strategy, matching Definitions 2–3. Each call is
// one threshold lookup; callers account for it.
func solveHit(w *topk.Workload, tab *hitTable, cur vec.Vector, j int, cost Cost, bounds *Bounds, sc *probeScratch) (vec.Vector, error) {
	space := w.Space()
	q := w.Query(j)
	target := tab.target
	threshold, bounded := tab.threshold(j)
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
// total cost, and its hit count. Every candidate of a round carries an upper
// bound on its hits; Hits is exact once the round has counted it, and a
// round counts only the candidates that can win it.
type Candidate struct {
	Query    int
	Strategy vec.Vector
	Cost     float64
	Hits     int
	bound    int     // Hits ≤ bound, from the round's hitBound
	ratio    float64 // Cost/bound ≤ Cost/Hits; −Inf when Cost ≤ 0
	counted  bool
}

// roundScratch carries one solve's greedy rounds: the target's hit table and
// the solve's recorder, the round's slot-indexed candidates (cands[slot]
// probes unhit[slot]; valid marks those not pruned) with their improved
// coefficients, and the buffers reused across rounds. One roundScratch is
// owned by one solve; the candidates are valid until the next
// generateCandidates call.
type roundScratch struct {
	tab    *hitTable
	rec    *recorder
	unhit  []int
	cands  []Candidate
	valid  []bool
	coeffs vec.Vector // slot-major, dim per slot
	dim    int
	bound  hitBound
	queue  queue
	probes []probeScratch // indexed by worker
}

// tally is one fan-out worker's share of a round's counters; it reaches the
// recorder once, when the worker finishes.
type tally struct {
	probes, pruned int64
}

// generateCandidates implements the shared inner loop of Algorithms 3 and 4
// (lines 4–8): for every query not currently hit, the min-cost strategy that
// hits it, with an upper bound on its hit count from the round's hitBound
// around at, the target's current coefficients. The exact counts are left to
// best and cheapest. With more than one worker the per-query work fans out
// across goroutines, which share the read-only table and bound; each worker
// owns one probeScratch.
//
// The round's candidates land in rs.cands, indexed by slot; the Strategy
// vectors inside them are freshly allocated per probe and safe to retain.
// Bit-for-bit determinism is preserved: probes still land in slot-indexed
// order and the scratch paths reproduce the original arithmetic exactly.
//
// Cancellation is checked before every probe, serial or parallel: workers
// stop picking up slots as soon as ctx fails, and a cancelled fan-out
// returns the translated context error, so the solvers discard the round's
// partial work instead of greedily applying a winner chosen from whatever
// subset happened to finish.
func generateCandidates(ctx context.Context, w *topk.Workload, workers int, cur, at vec.Vector, hit *bitset.Bits, cost Cost, bounds *Bounds, rs *roundScratch) error {
	start := time.Now()
	tab, rec := rs.tab, rs.rec
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
	if cap(rs.cands) < len(unhit) {
		rs.cands = make([]Candidate, len(unhit))
		rs.valid = make([]bool, len(unhit))
	}
	rs.cands = rs.cands[:len(unhit)]
	rs.valid = rs.valid[:len(unhit)]
	cands, valid := rs.cands, rs.valid
	for i := range valid {
		valid[i] = false
	}
	if len(rs.probes) < workers {
		rs.probes = make([]probeScratch, workers)
	}
	dim := len(at)
	rs.dim = dim
	rs.coeffs = growVec(rs.coeffs, len(unhit)*dim)
	tab.roundBound(at, &rs.bound)
	rec.solve.Add(int64(time.Since(start)))
	linear := w.Space().Linear()
	attrs := w.Attrs(tab.target)
	probe := func(pctx context.Context, wkr, slot int, t *tally) {
		fireProbe(slot)
		t.probes++
		j := unhit[slot]
		_, psp := obs.StartSpan(pctx, "probe")
		if psp != nil {
			// SetAttr boxes j, which allocates from 256 up.
			psp.SetAttr("query", j)
		}
		u, err := solveHit(w, tab, cur, j, cost, bounds, &rs.probes[wkr])
		if err != nil {
			t.pruned++
			psp.SetAttr("pruned", "infeasible")
			psp.End()
			return // infeasible for this query (e.g. bounds); skip
		}
		if !bounds.Contains(u) {
			t.pruned++
			psp.SetAttr("pruned", "bounds")
			psp.End()
			return
		}
		c := cost.Of(u)
		if !finiteStep(u, c) {
			t.pruned++
			psp.SetAttr("pruned", "nonfinite")
			psp.End()
			return
		}
		coeff := rs.coeffs[slot*dim : (slot+1)*dim : (slot+1)*dim]
		if linear {
			// A linear space's Embed is the identity (a dimension check plus
			// a clone), so the improved coefficients can be summed straight
			// into the slot's buffer — same values, no temporaries.
			for i := range attrs {
				coeff[i] = attrs[i] + u[i]
			}
		} else {
			e, err := w.Space().Embed(vec.Add(attrs, u))
			if err != nil {
				t.pruned++
				psp.SetAttr("pruned", "embed")
				psp.End()
				return
			}
			copy(coeff, e)
		}
		cands[slot] = ranked(j, u, c, rs.bound.upper(coeff))
		valid[slot] = true
		psp.End()
	}
	serial := workers <= 1 || len(unhit) < 2*workers
	if serial {
		workers = 1
	}
	// Each worker times its whole share of the fan-out and adds its counters
	// once, so the probe loop reads no clock and touches no shared counter.
	run := func(wctx context.Context, wkr int) {
		t0 := time.Now()
		var t tally
		for slot := wkr; slot < len(unhit); slot += workers {
			if ctx.Err() != nil {
				break
			}
			probe(wctx, wkr, slot, &t)
		}
		rec.fanOut(t, time.Since(t0))
	}
	if serial {
		run(ctx, 0)
	} else {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				wctx, wsp := obs.StartSpan(ctx, "worker")
				wsp.SetAttr("worker", wkr)
				defer wsp.End()
				run(wctx, wkr)
			}(wkr)
		}
		wg.Wait()
	}
	return CtxErr(ctx)
}

// ranked returns the candidate for query j with strategy u at cost c whose
// hits are at most bound.
func ranked(j int, u vec.Vector, c float64, bound int) Candidate {
	ratio := math.Inf(-1)
	if c > 0 {
		ratio = c / float64(bound)
	}
	return Candidate{Query: j, Strategy: u, Cost: c, bound: bound, ratio: ratio}
}

// hits returns the exact hit count of the candidate in slot, counting it
// against the table on first use inside an "eval" span.
func (rs *roundScratch) hits(ctx context.Context, slot int) int {
	c := &rs.cands[slot]
	if !c.counted {
		_, esp := obs.StartSpan(ctx, "eval")
		t0 := time.Now()
		c.Hits = rs.tab.hits(rs.coeffs[slot*rs.dim : (slot+1)*rs.dim])
		c.counted = true
		rs.rec.countDone(t0)
		if esp != nil {
			esp.SetAttr("hits", c.Hits)
		}
		esp.End()
	}
	return c.Hits
}

// best returns the round's candidate minimising cost per hit (Algorithm 3
// line 9 / Algorithm 4 line 9); candidates that gain no hits over baseHits
// are skipped. Ties are broken deterministically — lower cost, then lower
// query index — so parallel and serial candidate generation always pick the
// same winner (see DESIGN.md, "Deterministic parallelism").
//
// Only candidates that can win are counted: in ascending Cost/bound order,
// a lower bound on Cost/Hits, until that bound is strictly above the best
// ratio found. A candidate with Cost ≤ 0 has no such bound and is always
// counted. The pick equals the one from counting every candidate.
func (rs *roundScratch) best(ctx context.Context, baseHits int) (Candidate, bool) {
	q := rs.queue[:0]
	for slot := range rs.cands {
		if c := &rs.cands[slot]; rs.valid[slot] && c.bound > baseHits {
			q = append(q, queued{c.ratio, c.Query, slot})
		}
	}
	rs.queue = q // keep the grown buffer
	q.init()
	best := Candidate{}
	bestVal := 0.0
	found := false
	for len(q) > 0 {
		slot := q.pop()
		c := &rs.cands[slot]
		if found && c.ratio > bestVal {
			break // every candidate left has a ratio above bestVal too
		}
		h := rs.hits(ctx, slot)
		if h <= baseHits {
			continue // no progress; a ratio over stale hits would stall
		}
		ratio := c.Cost / float64(h)
		better := !found || ratio < bestVal ||
			(ratio == bestVal && (c.Cost < best.Cost ||
				(c.Cost == best.Cost && c.Query < best.Query)))
		if better {
			best, bestVal, found = *c, ratio, true
		}
	}
	return best, found
}

// cheapest returns the round's minimum (Cost, Query) candidate with at least
// minHits hits and cost at most maxCost: the Min-Cost anti-overshoot pick and
// the Max-Hit fill pick. Candidates are counted in that order, so only those
// up to the first that qualifies are.
func (rs *roundScratch) cheapest(ctx context.Context, minHits int, maxCost float64) (Candidate, bool) {
	q := rs.queue[:0]
	for slot := range rs.cands {
		if c := &rs.cands[slot]; rs.valid[slot] && c.bound >= minHits && c.Cost <= maxCost {
			q = append(q, queued{c.Cost, c.Query, slot})
		}
	}
	rs.queue = q
	q.init()
	for len(q) > 0 {
		if slot := q.pop(); rs.hits(ctx, slot) >= minHits {
			return rs.cands[slot], true
		}
	}
	return Candidate{}, false
}

// queued is a candidate waiting in a round's selection queue, ordered by
// (key, query): its ratio bound for best, its cost for cheapest. Query
// indices are unique within a round, so the order is total.
type queued struct {
	key   float64
	query int
	slot  int
}

func (a queued) before(b queued) bool {
	return a.key < b.key || (a.key == b.key && a.query < b.query)
}

// queue is a binary min-heap of queued candidates, so a round takes them in
// order and only as far as it counts: O(n) to build, O(log n) per pop.
type queue []queued

func (q queue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// pop removes the first candidate and returns its slot; q must be non-empty.
func (q *queue) pop() int {
	h := *q
	top := h[0].slot
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	q.down(0)
	return top
}

func (q queue) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(q) {
			return
		}
		if r := m + 1; r < len(q) && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
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
