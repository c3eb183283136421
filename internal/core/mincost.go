package core

import (
	"context"
	"fmt"
	"math"
	"time"

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
	// Iterations counts greedy rounds; Evaluations counts exact hit counts
	// of candidate strategies (Stats.Counted).
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

// MinCostIQCtx answers a Min-Cost improvement query with the greedy
// heuristic of Algorithm 3: each round generates, for every unhit query, the
// cheapest strategy hitting it, and applies the one with the lowest cost per
// hit, counting hits against the target's Eq. 6 threshold table only for
// the candidates a hit bound leaves in the running; the paper's
// anti-overshoot rule returns the cheapest candidate reaching τ rather than
// overshooting it. The solve runs on the caller's goroutine. Cancellation is
// observed at every greedy round and before every probe; a cancelled solve
// discards its partial strategy and returns a nil Result with
// ErrCanceled/ErrDeadlineExceeded wrapping ctx.Err().
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
		res.Stats, res.Evaluations = st, st.Counted
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
	if live := w.LiveQueries(); req.Tau > live {
		return nil, fmt.Errorf("core: tau %d exceeds query count %d: %w", req.Tau, live, ErrGoalUnreachable)
	}
	tab := hitTableFor(ctx, idx, req.Target, rec)
	rs := &roundScratch{tab: tab, rec: rec}
	d := len(w.Attrs(req.Target))
	at := w.Coeff(req.Target)
	res := &Result{Strategy: vec.New(d)}
	res.BaseHits = tab.hits(at)
	res.Hits = res.BaseHits
	if res.Hits >= req.Tau {
		return res, nil // already satisfied with the zero strategy
	}
	for res.Hits < req.Tau {
		res.Iterations++
		if err := checkpoint(ctx, "mincost", res.Iterations); err != nil {
			return nil, err
		}
		// Round spans end explicitly on every exit path — defer inside a
		// loop would pile up until the solve returns.
		rctx, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttr("round", res.Iterations)
		generateCandidates(rctx, w, res.Strategy, at, req.Cost, req.Bounds, rs)
		best, ok, err := rs.best(rctx, res.Hits)
		if err != nil {
			rsp.End()
			return nil, err
		}
		if !ok {
			rsp.End()
			return res, fmt.Errorf("core: stalled at %d of %d hits: %w", res.Hits, req.Tau, ErrGoalUnreachable)
		}
		if best.Hits > req.Tau {
			// Anti-overshoot (Algorithm 3 lines 10–13): prefer the
			// cheapest candidate that reaches τ without overshooting cost;
			// equal costs break by query index for determinism. The best
			// candidate qualifies, so one is always found.
			c, ok, err := rs.cheapest(rctx, req.Tau, math.Inf(1))
			if err != nil {
				rsp.End()
				return nil, err
			}
			if ok {
				best = c
			}
		}
		if at, err = apply(w, req.Target, res, best, req.Cost); err != nil {
			rsp.End()
			return res, err
		}
		rsp.SetAttr("hits", res.Hits)
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
