package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// MaxHitRequest describes a Max-Hit Improvement Query (Definition 3): hit as
// many queries as possible while Cost(s) ≤ Budget.
type MaxHitRequest struct {
	Target int
	Budget float64
	Cost   Cost
	Bounds *Bounds
	// Workers fans candidate evaluation out across goroutines (≤1 =
	// serial; degenerate values are clamped to [1, max(2, GOMAXPROCS)]
	// and never beyond the query count). The result is bit-identical
	// regardless of worker count.
	Workers int
}

// MaxHitIQ answers a Max-Hit improvement query with the greedy heuristic of
// Algorithm 4; it is MaxHitIQCtx without a cancellation point.
func MaxHitIQ(idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	return MaxHitIQCtx(context.Background(), idx, req)
}

// MaxHitIQCtx answers a Max-Hit improvement query with the greedy heuristic
// of Algorithm 4: while budget remains, apply the candidate strategy with
// the lowest cost per hit; when the best-ratio candidate no longer fits, a
// final fill pass walks the remaining candidates in cost order and applies
// any that still fit (lines 13–17). Cancellation is observed at every greedy
// round and inside the candidate fan-out; a cancelled solve discards its
// partial strategy and returns a nil Result with
// ErrCanceled/ErrDeadlineExceeded wrapping ctx.Err().
//
// One deliberate deviation from the paper's literal pseudocode: budgets are
// checked against the cost of the *cumulative* strategy Cost(s*+s) rather
// than the sum Cost(s*)+Cost(s). Definition 3 constrains the final
// strategy's cost, and for norm-like costs the sum over-estimates
// (triangle inequality), so the cumulative check is both more faithful to
// the definition and never worse.
func MaxHitIQCtx(ctx context.Context, idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "maxhit")
	rec := newRecorder()
	res, err := maxHitSolve(ctx, idx, req, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	st := finishSolve(ctx, "maxhit", req.Target, start, rec, rounds, err)
	endSolveSpan(span, st, err)
	if res != nil {
		res.Stats = st
	}
	return res, err
}

// checkBudget rejects a Max-Hit budget no strategy cost can be compared
// against: negative or NaN. +Inf is valid and means unbounded.
func checkBudget(budget float64) error {
	if budget < 0 || math.IsNaN(budget) {
		return fmt.Errorf("core: budget %g is not a non-negative number", budget)
	}
	return nil
}

func maxHitSolve(ctx context.Context, idx *subdomain.Index, req MaxHitRequest, rec *recorder) (*Result, error) {
	if err := validateCommon(idx, req.Target, req.Cost, req.Bounds); err != nil {
		return nil, err
	}
	if err := checkBudget(req.Budget); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	w := idx.Workload()
	pool, release, err := AcquireEvaluators(ctx, idx, req.Target, req.Workers)
	if err != nil {
		return nil, err
	}
	defer release()
	ev := pool[0]
	d := len(w.Attrs(req.Target))
	res := &Result{Strategy: vec.New(d), BaseHits: ev.BaseHits(), Hits: ev.BaseHits()}

	cur := vec.New(d)
	hit := bitset.New(w.NumQueries())
	ev.BaseHitSet(hit)
	curHits := ev.BaseHits()
	rs := &roundScratch{}

	for {
		res.Iterations++
		if res.Iterations > w.NumQueries()+8 {
			break
		}
		if err := checkpoint(ctx, "maxhit", res.Iterations); err != nil {
			return nil, err
		}
		// Round spans end explicitly on every exit path — defer inside a
		// loop would pile up until the solve returns.
		rctx, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttr("round", res.Iterations)
		cands, err := generateCandidates(rctx, idx, pool, req.Target, cur, hit, req.Cost, req.Bounds, rs, rec)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Evaluations += len(cands)
		best, ok := bestRatio(cands, curHits)
		if !ok {
			rsp.End()
			break // no candidate gains hits: every query hit or infeasible
		}
		if best.Cost <= req.Budget {
			cur = best.Strategy
			curHits = best.Hits
			coeff, err := w.Space().Embed(vec.Add(w.Attrs(req.Target), cur))
			if err != nil {
				rsp.End()
				return res, err
			}
			ev.HitSetBits(coeff, hit)
			res.Strategy = vec.Clone(cur)
			res.Cost = req.Cost.Of(cur)
			res.Hits = curHits
			rsp.SetAttr("hits", curHits)
			rsp.End()
			continue
		}
		// Final fill pass (Algorithm 4 lines 13–18): cheapest-first over
		// the remaining candidates; apply the first that fits and
		// re-enter the loop in case the new position unlocks more. Equal
		// costs order by query index so the pass is deterministic at any
		// worker count (see DESIGN.md, "Deterministic parallelism").
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].Cost != cands[b].Cost {
				return cands[a].Cost < cands[b].Cost
			}
			return cands[a].Query < cands[b].Query
		})
		applied := false
		for _, c := range cands {
			if c.Hits <= curHits || c.Cost > req.Budget {
				continue
			}
			cur = c.Strategy
			curHits = c.Hits
			coeff, err := w.Space().Embed(vec.Add(w.Attrs(req.Target), cur))
			if err != nil {
				rsp.End()
				return res, err
			}
			ev.HitSetBits(coeff, hit)
			res.Strategy = vec.Clone(cur)
			res.Cost = req.Cost.Of(cur)
			res.Hits = curHits
			applied = true
			break
		}
		rsp.SetAttr("hits", curHits)
		rsp.End()
		if !applied {
			break // nothing affordable gains a hit
		}
	}
	return res, nil
}
