package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

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

// probeScratch is one solve's reusable buffers for the per-probe subproblem
// (solveHit's shifted bounds); callers without one may pass nil and pay the
// allocations.
type probeScratch struct {
	lo, hi vec.Vector // shifted bounds backing stores
	bounds Bounds     // aliases lo/hi so no Bounds escapes per probe
}

// solveHit writes into u a low-cost cumulative strategy (relative to the
// target's original attributes) such that the target improved by u hits
// query j, against the threshold in the target's hit table tab.
// cur is the currently accumulated strategy; u extends it (u = cur for a
// query with no k-th competitor). In a linear space score is c·q_j at the
// target's current coefficients c = p+cur, summed as vec.Dot sums it; other
// spaces do not read it. The cost minimised is Cost(u), the total cost of
// the final strategy, matching Definitions 2–3. Each call is one threshold
// lookup; callers account for it.
func solveHit(u vec.Vector, w *topk.Workload, tab *hitTable, cur vec.Vector, j int, score float64, cost Cost, bounds *Bounds, sc *probeScratch) error {
	q := w.Query(j)
	threshold, bounded := tab.threshold(j)
	if !bounded {
		copy(u, cur) // fewer than k competitors: already hit
		return nil
	}
	if !w.Space().Linear() {
		v, err := solveHitNonLinear(w, tab.target, cur, q, threshold, cost, bounds)
		if err != nil {
			return err
		}
		copy(u, v)
		return nil
	}
	// Incremental step from the current improved position p' = p+cur
	// (Algorithm 3 line 5 solves from p', not from the original p):
	// q·(p + cur + δ) < threshold  ⇔  q·δ ≤ rhs. With non-negative query
	// weights the minimal L2 step only decreases attribute values, so
	// previously gained hits are preserved.
	rhs := threshold - score - strictMargin(threshold)
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
	if err := costMinToHalfspace(cost, u, q.Point, rhs, shifted); err != nil {
		return err
	}
	// Float addition is commutative, so δ+cur is bit-identical to
	// vec.Add(cur, δ).
	vec.AddInPlace(u, cur)
	return nil
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

// A round's slot is open until a selection pass solves its probe, which
// prunes it or ranks it as a candidate.
const (
	slotOpen uint8 = iota
	slotPruned
	slotRanked
)

// roundScratch carries one solve's greedy rounds: the target's hit table and
// the solve's recorder; the solve's probe bounds, fixed by its first round;
// the round being selected (its inputs, the queries the target does not hit
// with their scores and bounds, each slot's state and candidate — cands[slot]
// probes rows.query[slot] — and their strategies and improved coefficients,
// slot-major); and the buffers reused across rounds. One roundScratch is
// owned by one solve; the candidates, strategies included, are valid until
// the next generateCandidates call.
type roundScratch struct {
	tab *hitTable
	rec *recorder
	pb  probeBounds

	w      *topk.Workload
	cur    vec.Vector
	cost   Cost
	bounds *Bounds
	rows   unhitRows
	state  []uint8
	cands  []Candidate
	strats vec.Vector // slot-major, sdim per slot
	coeffs vec.Vector // slot-major, dim per slot
	sdim   int
	dim    int
	opened bool // the solve's first round has run
	bound  hitBound
	queue  queue
	sc     probeScratch
}

// generateCandidates opens one round of the inner loop of Algorithms 3 and 4
// (lines 4–8): the candidates are, for every query not currently hit, the
// min-cost strategy that hits it, extending cur, with an upper bound on its
// hit count from the round's hitBound around at, the target's current
// coefficients. One pass over the target's hit table (hitTable.round) finds
// the unhit queries, their scores at at and the bound, and bounds every
// row's probe before it is solved: its cost from below and its hits from
// above (probeBounds). No probe is solved here: best and cheapest solve a
// row's probe when its bounds bring it to the head of their order, and the
// exact counts are theirs too. The solve's first round must have the target
// at its own coefficients, where the cost bounds are taken.
//
// The round's candidates land in rs.cands, indexed by slot, and each probe
// writes its strategy and improved coefficients into the slot's share of
// rs.strats and rs.coeffs: a warm round with an unbounded built-in cost
// allocates nothing, and a solver clones the candidate it applies.
func generateCandidates(ctx context.Context, w *topk.Workload, cur, at vec.Vector, cost Cost, bounds *Bounds, rs *roundScratch) {
	start := time.Now()
	_, csp := obs.StartSpan(ctx, "candidates")
	defer csp.End()
	if !rs.opened {
		rs.pb.init(w, rs.tab, cost, bounds, at)
		rs.opened = true
	}
	rs.tab.round(at, &rs.bound, &rs.pb, &rs.rows)
	n := len(rs.rows.query)
	if csp != nil {
		// SetAttr boxes its ints, which allocates from 256 up.
		csp.SetAttr("unhit", n)
	}
	if cap(rs.cands) < n {
		rs.cands = make([]Candidate, n)
		rs.state = make([]uint8, n)
	}
	rs.cands, rs.state = rs.cands[:n], rs.state[:n]
	clear(rs.state)
	rs.w, rs.cur, rs.cost, rs.bounds = w, cur, cost, bounds
	rs.sdim, rs.dim = len(cur), len(at)
	rs.strats = growVec(rs.strats, n*rs.sdim)
	rs.coeffs = growVec(rs.coeffs, n*rs.dim)
	rs.rec.solve += int64(time.Since(start))
}

// solve solves the probe of one slot of the round unless ctx has failed, and
// returns the translated context error if ctx failed before or during the
// probe: a cancelled round fails, so the solvers discard its partial work
// instead of greedily applying a winner chosen from the probes that finished.
func (rs *roundScratch) solve(ctx context.Context, slot int) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	rs.probe(ctx, slot)
	return CtxErr(ctx)
}

// account adds a selection pass's wall time since t0 to the recorder, net of
// its exact counts, which had added up to eval0 before the pass. Timing the
// pass rather than each probe keeps the clock out of the probe loop.
func (rs *roundScratch) account(t0 time.Time, eval0 int64) {
	rs.rec.solve += int64(time.Since(t0)) - (rs.rec.eval - eval0)
}

// probe solves the subproblem of the round's slot into the slot's strategy
// and coefficients and ranks it, or prunes it. Each probe is one threshold
// lookup.
func (rs *roundScratch) probe(ctx context.Context, slot int) {
	fireProbe(slot)
	rs.rec.probes++
	rs.rec.thrHits++
	rs.state[slot] = slotPruned
	j := rs.rows.query[slot]
	_, psp := obs.StartSpan(ctx, "probe")
	if psp != nil {
		// SetAttr boxes j, which allocates from 256 up.
		psp.SetAttr("query", j)
	}
	defer psp.End()
	u := rs.strats[slot*rs.sdim : (slot+1)*rs.sdim : (slot+1)*rs.sdim]
	if err := solveHit(u, rs.w, rs.tab, rs.cur, j, rs.rows.score[slot], rs.cost, rs.bounds, &rs.sc); err != nil {
		rs.rec.pruned++
		psp.SetAttr("pruned", "infeasible")
		return // infeasible for this query (e.g. bounds); skip
	}
	if !rs.bounds.Contains(u) {
		rs.rec.pruned++
		psp.SetAttr("pruned", "bounds")
		return
	}
	c := rs.cost.Of(u)
	if !finiteStep(u, c) {
		rs.rec.pruned++
		psp.SetAttr("pruned", "nonfinite")
		return
	}
	coeff := rs.coeffs[slot*rs.dim : (slot+1)*rs.dim : (slot+1)*rs.dim]
	attrs := rs.w.Attrs(rs.tab.target)
	if rs.w.Space().Linear() {
		// A linear space's Embed is the identity (a dimension check plus
		// a clone), so the improved coefficients can be summed straight
		// into the slot's buffer — same values, no temporaries.
		for i := range attrs {
			coeff[i] = attrs[i] + u[i]
		}
	} else {
		e, err := rs.w.Space().Embed(vec.Add(attrs, u))
		if err != nil {
			rs.rec.pruned++
			psp.SetAttr("pruned", "embed")
			return
		}
		copy(coeff, e)
	}
	rs.cands[slot] = ranked(j, u, c, rs.bound.upper(coeff))
	rs.state[slot] = slotRanked
	rs.rec.cands++
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

// apply moves res to c, the round's pick, and returns the target's
// coefficients there. The pick's strategy lives in the round's buffers, so
// it is cloned; on error res is left as it was.
func apply(w *topk.Workload, target int, res *Result, c Candidate, cost Cost) (vec.Vector, error) {
	cur := vec.Clone(c.Strategy)
	at, err := w.Space().Embed(vec.Add(w.Attrs(target), cur))
	if err != nil {
		return nil, err
	}
	res.Strategy, res.Cost, res.Hits = cur, cost.Of(cur), c.Hits
	return at, nil
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

// order is one selection pass over a round: the candidates it admits, those
// that may reach minHits hits at a cost of at most maxCost, and the key it
// takes them in, (key, query) ascending: Cost/bound when perHit (best), else
// Cost (cheapest). A slot whose probe is not solved yet enters under a key
// from its bounds (open) that is at most the key its candidate will have.
type order struct {
	perHit  bool
	minHits int
	maxCost float64
}

// open returns the key of an open slot whose probe costs at least lower and
// hits at most hitCap, and whether its candidate may be admitted.
func (o order) open(lower float64, hitCap int) (float64, bool) {
	switch {
	case hitCap < o.minHits || lower > o.maxCost:
		return 0, false
	case !o.perHit:
		return lower, true
	case lower <= 0:
		return math.Inf(-1), true
	}
	return lower / float64(hitCap), true
}

// ranked returns the key of candidate c and whether it is admitted.
func (o order) ranked(c *Candidate) (float64, bool) {
	switch {
	case c.bound < o.minHits || c.Cost > o.maxCost:
		return 0, false
	case o.perHit:
		return c.ratio, true
	}
	return c.Cost, true
}

// enqueue fills the round's selection heap with every slot o admits: a
// ranked slot under its exact key, an open one under its bound key.
func (rs *roundScratch) enqueue(o order) queue {
	if cap(rs.queue) < len(rs.state) {
		// Every slot at most once, and a pass never pushes more than it
		// popped: q never outgrows this.
		rs.queue = make(queue, 0, len(rs.state))
	}
	q := rs.queue[:0]
	for slot, st := range rs.state {
		key, ok := 0.0, false
		switch st {
		case slotOpen:
			key, ok = o.open(rs.rows.lower[slot], rs.rows.cap[slot])
		case slotRanked:
			key, ok = o.ranked(&rs.cands[slot])
		}
		if ok {
			q = append(q, queued{key, rs.rows.query[slot], slot})
		}
	}
	q.init()
	return q
}

// next returns the first entry of q, with its candidate ranked, or false once
// q is empty or its first key is above limit. An open slot at the head is
// solved first and re-enters q under its exact key if o admits it. q orders
// by (key, query) and an open slot's key is at most its exact key, so ranked
// candidates leave q in exact (key, query) order, as they would had every
// probe been solved first, and no probe whose bound key is above limit is
// solved.
func (rs *roundScratch) next(ctx context.Context, q *queue, o order, limit float64) (queued, bool, error) {
	for len(*q) > 0 && (*q)[0].key <= limit {
		head := (*q)[0]
		if rs.state[head.slot] == slotRanked {
			return head, true, nil
		}
		q.pop()
		if err := rs.solve(ctx, head.slot); err != nil {
			return queued{}, false, err
		}
		if rs.state[head.slot] != slotRanked {
			continue
		}
		if key, ok := o.ranked(&rs.cands[head.slot]); ok {
			q.push(queued{key, head.query, head.slot})
		}
	}
	return queued{}, false, nil
}

// best returns the round's candidate minimising cost per hit (Algorithm 3
// line 9 / Algorithm 4 line 9); candidates that gain no hits over baseHits
// are skipped. Ties are broken deterministically — lower cost, then lower
// query index — so the pick does not depend on the order probes are solved
// in (see DESIGN.md, "Deterministic selection").
//
// Only candidates that can win are solved and counted: in ascending
// Cost/bound order, a lower bound on Cost/Hits, until that bound is strictly
// above the best ratio found; a row whose probe is not solved yet waits
// under lower/cap, a lower bound on its Cost/bound. A candidate with
// Cost ≤ 0 has no such bound and is always counted. The pick and the counts
// equal those from solving every probe first, and the pick equals the one
// from counting every candidate. A context that fails while a probe is
// solved fails the round.
func (rs *roundScratch) best(ctx context.Context, baseHits int) (Candidate, bool, error) {
	defer rs.account(time.Now(), rs.rec.eval)
	o := order{perHit: true, minHits: baseHits + 1, maxCost: math.Inf(1)}
	q := rs.enqueue(o)
	best := Candidate{}
	bestVal := math.Inf(1)
	found := false
	for {
		e, ok, err := rs.next(ctx, &q, o, bestVal)
		if err != nil {
			return Candidate{}, false, err
		}
		if !ok {
			return best, found, nil // every key left is above bestVal
		}
		q.pop()
		c := &rs.cands[e.slot]
		h := rs.hits(ctx, e.slot)
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
}

// cheapest returns the round's minimum (Cost, Query) candidate with at least
// minHits hits and cost at most maxCost: the Min-Cost anti-overshoot pick and
// the Max-Hit fill pick. Candidates are solved and counted in that order, a
// row whose probe is not solved yet waiting under its cost's lower bound, so
// only those up to the first that qualifies are. A context that fails while
// a probe is solved fails the round.
func (rs *roundScratch) cheapest(ctx context.Context, minHits int, maxCost float64) (Candidate, bool, error) {
	defer rs.account(time.Now(), rs.rec.eval)
	o := order{minHits: minHits, maxCost: maxCost}
	q := rs.enqueue(o)
	for {
		e, ok, err := rs.next(ctx, &q, o, math.Inf(1))
		if err != nil || !ok {
			return Candidate{}, false, err
		}
		q.pop()
		if rs.hits(ctx, e.slot) >= minHits {
			return rs.cands[e.slot], true, nil
		}
	}
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
// order and only as far as it counts: O(n) to build, O(log n) per pop and
// push.
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

// push adds e to q.
func (q *queue) push(e queued) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
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
