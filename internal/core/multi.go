package core

import (
	"context"
	"fmt"
	"time"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file implements the combinatorial (multi-target) improvement queries
// of Section 5.1: improve a set of objects so their combined hit count
// reaches τ (min cost) or is maximised under a shared budget. A query hit by
// several targets counts once.

// TargetSpec pairs a target object with its own cost function and validity
// bounds — the paper lets each target carry a different cost function.
type TargetSpec struct {
	Target int
	Cost   Cost
	Bounds *Bounds
}

// MultiResult reports a combinatorial improvement query's outcome.
type MultiResult struct {
	// Strategies maps target object index → improvement vector.
	Strategies map[int]vec.Vector
	// TotalCost is the sum of the per-target strategy costs.
	TotalCost float64
	// TotalHits is the size of the union of the targets' hit sets, with
	// every target evaluated against the original competitors (the
	// convention of the Section 5.1 candidate-generation steps).
	TotalHits int
	// Iterations and Evaluations mirror Result's counters.
	Iterations  int
	Evaluations int
	// Stats is the solve's work profile (see SolveStats).
	Stats SolveStats
}

// CostPerHit returns TotalCost/TotalHits, the paper's quality metric.
func (r *MultiResult) CostPerHit() float64 {
	if r.TotalHits == 0 {
		return inf()
	}
	return r.TotalCost / float64(r.TotalHits)
}

// multiState carries the per-target search state.
type multiState struct {
	idx     *subdomain.Index
	specs   []TargetSpec
	tabs    []*hitTable    // per-target hit tables
	cur     []vec.Vector   // cumulative strategy per target
	hits    []*bitset.Bits // per-target hit sets
	union   map[int]int    // query -> number of targets hitting it
	sc      probeScratch   // candidate generation is serial: one scratch
	scratch *bitset.Bits   // one candidate's hit set
}

func newMultiState(ctx context.Context, idx *subdomain.Index, specs []TargetSpec, rec *recorder) (*multiState, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no target objects")
	}
	w := idx.Workload()
	seen := map[int]bool{}
	st := &multiState{idx: idx, specs: specs, union: map[int]int{}, scratch: bitset.New(w.NumQueries())}
	for _, spec := range specs {
		if err := validateCommon(idx, spec.Target, spec.Cost, spec.Bounds); err != nil {
			return nil, err
		}
		if seen[spec.Target] {
			return nil, fmt.Errorf("core: duplicate target %d", spec.Target)
		}
		seen[spec.Target] = true
		tab := hitTableFor(ctx, idx, spec.Target, rec)
		st.tabs = append(st.tabs, tab)
		st.cur = append(st.cur, vec.New(len(w.Attrs(spec.Target))))
		hs := bitset.New(w.NumQueries())
		tab.hitSet(w.Coeff(spec.Target), hs)
		for j := 0; j < w.NumQueries(); j++ {
			if hs.Get(j) {
				st.union[j]++
			}
		}
		st.hits = append(st.hits, hs)
	}
	return st, nil
}

func (st *multiState) unionSize() int { return len(st.union) }

func (st *multiState) totalCost() float64 {
	c := 0.0
	for i, spec := range st.specs {
		c += spec.Cost.Of(st.cur[i])
	}
	return c
}

// apply commits candidate strategy u for target slot i, refreshing hit sets
// and the union.
func (st *multiState) apply(i int, u vec.Vector) error {
	w := st.idx.Workload()
	coeff, err := w.Space().Embed(vec.Add(w.Attrs(st.specs[i].Target), u))
	if err != nil {
		return err
	}
	newHits := bitset.New(w.NumQueries())
	st.tabs[i].hitSet(coeff, newHits)
	for j := 0; j < w.NumQueries(); j++ {
		was, now := st.hits[i].Get(j), newHits.Get(j)
		if was && !now {
			st.union[j]--
			if st.union[j] == 0 {
				delete(st.union, j)
			}
		} else if now && !was {
			st.union[j]++
		}
	}
	st.hits[i] = newHits
	st.cur[i] = vec.Clone(u)
	return nil
}

// multiCandidate extends Candidate with the target slot and the resulting
// union size.
type multiCandidate struct {
	slot      int
	strategy  vec.Vector
	cost      float64 // total cost across all targets if applied
	unionSize int
}

// generate produces, for every (target, unhit query) pair, the min-cost
// strategy making that target hit that query — Step 1 of both Section 5.1
// procedures. The (target × query) scan is the hot loop, so cancellation is
// checked before every per-query solve; a cancelled scan discards its
// partial candidate pool.
func (st *multiState) generate(ctx context.Context, rec *recorder) ([]multiCandidate, int, error) {
	w := st.idx.Workload()
	var out []multiCandidate
	evals := 0
	for i, spec := range st.specs {
		baseCostOthers := 0.0
		for k, other := range st.specs {
			if k != i {
				baseCostOthers += other.Cost.Of(st.cur[k])
			}
		}
		// In a linear space solveHit starts from the score at the target's
		// current coefficients, which are its own plus its strategy.
		var at vec.Vector
		if w.Space().Linear() {
			at = vec.Add(w.Coeff(spec.Target), st.cur[i])
		}
		for j := 0; j < w.NumQueries(); j++ {
			if st.union[j] > 0 || w.IsQueryRemoved(j) {
				continue // already hit by some target, or removed
			}
			if err := CtxErr(ctx); err != nil {
				return nil, evals, err
			}
			t0 := rec.probeStart()
			pctx, psp := obs.StartSpan(ctx, "probe")
			if psp != nil {
				// SetAttr boxes its ints, which allocates from 256 up.
				psp.SetAttr("target", spec.Target)
				psp.SetAttr("query", j)
			}
			score := 0.0
			if at != nil {
				score = vec.Dot(at, w.Query(j).Point)
			}
			u := make(vec.Vector, len(st.cur[i]))
			err := solveHit(u, w, st.tabs[i], st.cur[i], j, score, spec.Cost, spec.Bounds, &st.sc)
			rec.thresholdHit()
			t1 := rec.solveDone(t0)
			if err != nil || !spec.Bounds.Contains(u) {
				rec.pruned++
				psp.SetAttr("pruned", "infeasible")
				psp.End()
				continue
			}
			uCost := spec.Cost.Of(u)
			if !finiteStep(u, uCost) {
				rec.pruned++
				psp.SetAttr("pruned", "nonfinite")
				psp.End()
				continue
			}
			coeff, err := w.Space().Embed(vec.Add(w.Attrs(spec.Target), u))
			if err != nil {
				rec.pruned++
				psp.SetAttr("pruned", "embed")
				psp.End()
				continue
			}
			_, esp := obs.StartSpan(pctx, "eval")
			newHits := st.scratch
			if h := st.tabs[i].hitSet(coeff, newHits); esp != nil {
				esp.SetAttr("hits", h)
			}
			esp.End()
			rec.cands++
			rec.countDone(t1)
			psp.End()
			evals++
			// Union size if applied.
			size := st.unionSize()
			for q := 0; q < w.NumQueries(); q++ {
				was, now := st.hits[i].Get(q), newHits.Get(q)
				if was && !now && st.union[q] == 1 {
					size--
				} else if now && !was && st.union[q] == 0 {
					size++
				}
			}
			out = append(out, multiCandidate{
				slot:      i,
				strategy:  u,
				cost:      baseCostOthers + uCost,
				unionSize: size,
			})
		}
	}
	return out, evals, nil
}

// CombinatorialMinCostIQ finds per-target strategies whose combined hits
// reach tau with low total cost (Section 5.1, first procedure); it is
// CombinatorialMinCostIQCtx without a cancellation point.
func CombinatorialMinCostIQ(idx *subdomain.Index, specs []TargetSpec, tau int) (*MultiResult, error) {
	return CombinatorialMinCostIQCtx(context.Background(), idx, specs, tau)
}

// CombinatorialMinCostIQCtx is CombinatorialMinCostIQ with per-iteration and
// per-candidate cancellation; a cancelled solve discards its partial
// strategies and returns a nil MultiResult.
func CombinatorialMinCostIQCtx(ctx context.Context, idx *subdomain.Index, specs []TargetSpec, tau int) (*MultiResult, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "mincost-multi")
	rec := newRecorder()
	res, err := combMinCostSolve(ctx, idx, specs, tau, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	stats := finishSolve(ctx, "mincost-multi", -1, start, rec, rounds, err)
	endSolveSpan(span, stats, err)
	if res != nil {
		res.Stats = stats
	}
	return res, err
}

func combMinCostSolve(ctx context.Context, idx *subdomain.Index, specs []TargetSpec, tau int, rec *recorder) (*MultiResult, error) {
	st, err := newMultiState(ctx, idx, specs, rec)
	if err != nil {
		return nil, err
	}
	w := idx.Workload()
	if live := w.LiveQueries(); tau > live {
		return nil, fmt.Errorf("core: tau %d exceeds query count %d: %w", tau, live, ErrGoalUnreachable)
	}
	res := &MultiResult{Strategies: map[int]vec.Vector{}}
	for st.unionSize() < tau {
		res.Iterations++
		if res.Iterations > w.NumQueries()+tau+8 {
			st.fill(res)
			return res, fmt.Errorf("core: iteration guard tripped: %w", ErrGoalUnreachable)
		}
		if err := checkpoint(ctx, "mincost-multi", res.Iterations); err != nil {
			return nil, err
		}
		// Round spans end explicitly on every exit path — defer inside a
		// loop would pile up until the solve returns.
		rctx, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttr("round", res.Iterations)
		cands, evals, err := st.generate(rctx, rec)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Evaluations += evals
		best, ok := pickBestMulti(cands, st.unionSize())
		if !ok {
			rsp.End()
			st.fill(res)
			return res, fmt.Errorf("core: stalled at %d of %d hits: %w", st.unionSize(), tau, ErrGoalUnreachable)
		}
		// Anti-overshoot (Step 2): when the ratio-best overshoots τ,
		// prefer the cheapest candidate reaching τ.
		if best.unionSize > tau {
			cheapest, found := best, false
			for _, c := range cands {
				if c.unionSize >= tau && (!found || c.cost < cheapest.cost) {
					cheapest, found = c, true
				}
			}
			if found {
				best = cheapest
			}
		}
		if err := st.apply(best.slot, best.strategy); err != nil {
			rsp.End()
			return res, err
		}
		rsp.SetAttr("hits", st.unionSize())
		rsp.End()
	}
	st.fill(res)
	return res, nil
}

// CombinatorialMaxHitIQ maximises the combined hit count under a shared
// budget (Section 5.1, second procedure); it is CombinatorialMaxHitIQCtx
// without a cancellation point.
func CombinatorialMaxHitIQ(idx *subdomain.Index, specs []TargetSpec, budget float64) (*MultiResult, error) {
	return CombinatorialMaxHitIQCtx(context.Background(), idx, specs, budget)
}

// CombinatorialMaxHitIQCtx is CombinatorialMaxHitIQ with per-iteration and
// per-candidate cancellation; a cancelled solve discards its partial
// strategies and returns a nil MultiResult.
func CombinatorialMaxHitIQCtx(ctx context.Context, idx *subdomain.Index, specs []TargetSpec, budget float64) (*MultiResult, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "maxhit-multi")
	rec := newRecorder()
	res, err := combMaxHitSolve(ctx, idx, specs, budget, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	stats := finishSolve(ctx, "maxhit-multi", -1, start, rec, rounds, err)
	endSolveSpan(span, stats, err)
	if res != nil {
		res.Stats = stats
	}
	return res, err
}

func combMaxHitSolve(ctx context.Context, idx *subdomain.Index, specs []TargetSpec, budget float64, rec *recorder) (*MultiResult, error) {
	if err := checkBudget(budget); err != nil {
		return nil, err
	}
	st, err := newMultiState(ctx, idx, specs, rec)
	if err != nil {
		return nil, err
	}
	w := idx.Workload()
	res := &MultiResult{Strategies: map[int]vec.Vector{}}
	for {
		res.Iterations++
		if res.Iterations > w.NumQueries()+8 {
			break
		}
		if err := checkpoint(ctx, "maxhit-multi", res.Iterations); err != nil {
			return nil, err
		}
		// Round spans end explicitly on every exit path — defer inside a
		// loop would pile up until the solve returns.
		rctx, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttr("round", res.Iterations)
		cands, evals, err := st.generate(rctx, rec)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Evaluations += evals
		// Step 2: filter candidates whose total cost exceeds the budget.
		var affordable []multiCandidate
		for _, c := range cands {
			if c.cost <= budget {
				affordable = append(affordable, c)
			}
		}
		best, ok := pickBestMulti(affordable, st.unionSize())
		if !ok {
			rsp.End()
			break // Step 2: candidate set empty → terminate
		}
		if err := st.apply(best.slot, best.strategy); err != nil {
			rsp.End()
			return res, err
		}
		rsp.SetAttr("hits", st.unionSize())
		rsp.End()
	}
	st.fill(res)
	return res, nil
}

func pickBestMulti(cands []multiCandidate, baseUnion int) (multiCandidate, bool) {
	best := multiCandidate{}
	bestVal := 0.0
	found := false
	for _, c := range cands {
		if c.unionSize <= baseUnion {
			continue
		}
		ratio := c.cost / float64(c.unionSize)
		if !found || ratio < bestVal {
			best, bestVal, found = c, ratio, true
		}
	}
	return best, found
}

// fill copies the state into the result.
func (st *multiState) fill(res *MultiResult) {
	for i, spec := range st.specs {
		res.Strategies[spec.Target] = vec.Clone(st.cur[i])
	}
	res.TotalCost = st.totalCost()
	res.TotalHits = st.unionSize()
}

// ExactUnionHits recomputes the union hit count with every target's
// improvement committed simultaneously, so improved targets compete against
// each other — the strictest reading of Definition 5. It builds a scratch
// workload and is O(targets × queries × objects); intended for verification
// and reporting, not the inner search loop.
func ExactUnionHits(idx *subdomain.Index, strategies map[int]vec.Vector) (int, error) {
	w := idx.Workload()
	attrs := make([]vec.Vector, w.NumObjects())
	for i := range attrs {
		attrs[i] = vec.Clone(w.Attrs(i))
	}
	for target, s := range strategies {
		if target < 0 || target >= len(attrs) {
			return 0, fmt.Errorf("core: strategy for unknown target %d", target)
		}
		attrs[target] = vec.Add(attrs[target], s)
	}
	queries := make([]topk.Query, w.NumQueries())
	for j := range queries {
		queries[j] = w.Query(j)
	}
	scratch, err := topk.NewWorkload(w.Space(), attrs, queries)
	if err != nil {
		return 0, err
	}
	for i := 0; i < w.NumObjects(); i++ {
		if w.IsRemoved(i) {
			scratch.RemoveObject(i)
		}
	}
	union := map[int]bool{}
	for target := range strategies {
		hs, err := scratch.HitSet(scratch.Attrs(target), target)
		if err != nil {
			return 0, err
		}
		for _, j := range hs {
			union[j] = true
		}
	}
	return len(union), nil
}
