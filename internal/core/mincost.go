package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// MinCostRequest describes a Min-Cost Improvement Query (Definition 2): find
// a low-cost strategy making the target hit at least Tau queries.
type MinCostRequest struct {
	Target int
	Tau    int
	Cost   Cost
	// Bounds restricts valid strategies (nil = unbounded).
	Bounds *Bounds
	// Workers fans candidate evaluation out across goroutines (≤1 =
	// serial; degenerate values are clamped to [1, max(2, GOMAXPROCS)]
	// and never beyond the query count). The result is bit-identical
	// regardless of worker count.
	Workers int
}

// Result reports an improvement query's outcome.
type Result struct {
	// Strategy is the improvement vector s with p' = p + s.
	Strategy vec.Vector
	// Cost is Cost(Strategy).
	Cost float64
	// Hits is H(p + s), the number of queries the improved object hits.
	Hits int
	// BaseHits is H(p) before improvement.
	BaseHits int
	// Iterations counts greedy rounds; Evaluations counts ESE calls.
	Iterations  int
	Evaluations int
	// Stats is the solve's full work profile: probes, prune counts, and
	// wall time per stage (see SolveStats). Iterations/Evaluations above
	// predate it and remain for compatibility.
	Stats SolveStats
}

// CostPerHit returns Cost/Hits, the paper's unified quality metric (lower is
// better); +Inf when nothing is hit.
func (r *Result) CostPerHit() float64 {
	if r.Hits == 0 {
		return inf()
	}
	return r.Cost / float64(r.Hits)
}

func inf() float64 { return math.Inf(1) }

// MinCostIQ answers a Min-Cost improvement query with the greedy heuristic
// of Algorithm 3; it is MinCostIQCtx without a cancellation point.
func MinCostIQ(idx *subdomain.Index, req MinCostRequest) (*Result, error) {
	return MinCostIQCtx(context.Background(), idx, req)
}

// MinCostIQCtx answers a Min-Cost improvement query with the greedy
// heuristic of Algorithm 3: each round generates, for every unhit query, the
// cheapest strategy hitting it, evaluates the candidates with ESE, and
// applies the one with the lowest cost per hit; the paper's anti-overshoot
// rule returns the cheapest candidate reaching τ rather than overshooting
// it. Cancellation is observed at every greedy round and inside the
// candidate fan-out; a cancelled solve discards its partial strategy and
// returns a nil Result with ErrCanceled/ErrDeadlineExceeded wrapping
// ctx.Err().
func MinCostIQCtx(ctx context.Context, idx *subdomain.Index, req MinCostRequest) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "mincost")
	rec := newRecorder()
	res, err := minCostSolve(ctx, idx, req, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	st := finishSolve(ctx, "mincost", req.Target, start, rec, rounds, err)
	endSolveSpan(span, st, err)
	if res != nil {
		res.Stats = st
	}
	return res, err
}

func minCostSolve(ctx context.Context, idx *subdomain.Index, req MinCostRequest, rec *recorder) (*Result, error) {
	if err := validateCommon(idx, req.Target, req.Cost, req.Bounds); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	w := idx.Workload()
	if req.Tau < 0 {
		return nil, fmt.Errorf("core: negative tau %d", req.Tau)
	}
	if req.Tau > w.NumQueries() {
		return nil, fmt.Errorf("core: tau %d exceeds query count %d: %w", req.Tau, w.NumQueries(), ErrGoalUnreachable)
	}
	pool, release, err := AcquireEvaluators(ctx, idx, req.Target, req.Workers)
	if err != nil {
		return nil, err
	}
	defer release()
	ev := pool[0]
	d := len(w.Attrs(req.Target))
	res := &Result{Strategy: vec.New(d), BaseHits: ev.BaseHits(), Hits: ev.BaseHits()}
	if res.Hits >= req.Tau {
		return res, nil // already satisfied with the zero strategy
	}

	cur := vec.New(d)
	hit := bitset.New(w.NumQueries())
	ev.BaseHitSet(hit)
	curHits := ev.BaseHits()
	rs := &roundScratch{}

	for curHits < req.Tau {
		res.Iterations++
		if err := checkpoint(ctx, "mincost", res.Iterations); err != nil {
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
			return res, fmt.Errorf("core: stalled at %d of %d hits: %w", curHits, req.Tau, ErrGoalUnreachable)
		}
		if best.Hits > req.Tau {
			// Anti-overshoot (Algorithm 3 lines 10–13): prefer the
			// cheapest candidate that reaches τ without overshooting cost;
			// equal costs break by query index for determinism.
			cheapest, found := best, false
			for _, c := range cands {
				if c.Hits < req.Tau {
					continue
				}
				if !found || c.Cost < cheapest.Cost ||
					(c.Cost == cheapest.Cost && c.Query < cheapest.Query) {
					cheapest, found = c, true
				}
			}
			if found {
				best = cheapest
			}
		}
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
		if res.Iterations > w.NumQueries()+req.Tau+8 {
			return res, fmt.Errorf("core: iteration guard tripped: %w", ErrGoalUnreachable)
		}
	}
	return res, nil
}

// validateCommon checks the inputs every solver shares: a live target, a
// cost function, and — sized to the target's attribute dimension — the
// strategy bounds and a weighted cost's weights. Malformed bounds would
// otherwise panic mid-solve, and malformed weights fail every per-query
// probe, which reads as a false "goal unreachable".
func validateCommon(idx *subdomain.Index, target int, cost Cost, bounds *Bounds) error {
	w := idx.Workload()
	if target < 0 || target >= w.NumObjects() {
		return fmt.Errorf("core: target %d out of range [0,%d)", target, w.NumObjects())
	}
	if w.IsRemoved(target) {
		return fmt.Errorf("core: target %d is removed", target)
	}
	if cost == nil {
		return fmt.Errorf("core: nil cost function")
	}
	d := len(w.Attrs(target))
	if c, ok := cost.(WeightedL2Cost); ok {
		if err := c.check(d); err != nil {
			return err
		}
	}
	return bounds.check(d)
}
