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

// MaxHitRequest describes a Max-Hit Improvement Query (Definition 3): hit as
// many queries as possible while Cost(s) ≤ Budget.
type MaxHitRequest struct {
	Target int
	Budget float64
	Cost   Cost
	Bounds *Bounds
}

// MaxHitIQ answers a Max-Hit improvement query with the greedy heuristic of
// Algorithm 4; it is MaxHitIQCtx without a cancellation point.
func MaxHitIQ(idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	return MaxHitIQCtx(context.Background(), idx, req)
}

// MaxHitIQCtx answers a Max-Hit improvement query with the greedy heuristic
// of Algorithm 4: while budget remains, apply the candidate strategy with
// the lowest cost per hit; when the best-ratio candidate no longer fits, a
// final fill pass applies the cheapest remaining candidate that still fits
// and gains a hit (lines 13–17). The solve runs on the caller's goroutine.
// Cancellation is observed at every greedy round and before every probe; a
// cancelled solve discards its partial strategy and returns a nil Result
// with ErrCanceled/ErrDeadlineExceeded wrapping ctx.Err().
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
		res.Stats, res.Evaluations = st, st.Counted
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
	tab := hitTableFor(ctx, idx, req.Target, rec)
	rs := &roundScratch{tab: tab, rec: rec}
	d := len(w.Attrs(req.Target))
	at := w.Coeff(req.Target)
	res := &Result{Strategy: vec.New(d)}
	res.BaseHits = tab.hits(at)
	res.Hits = res.BaseHits
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
		generateCandidates(rctx, w, res.Strategy, at, req.Cost, req.Bounds, rs)
		best, ok, err := rs.best(rctx, res.Hits)
		if err != nil {
			rsp.End()
			return nil, err
		}
		if !ok {
			rsp.End()
			break // no candidate gains hits: every query hit or infeasible
		}
		if best.Cost <= req.Budget {
			if at, err = apply(w, req.Target, res, best, req.Cost); err != nil {
				rsp.End()
				return res, err
			}
			rsp.SetAttr("hits", res.Hits)
			rsp.End()
			continue
		}
		// Final fill pass (Algorithm 4 lines 13–18): apply the cheapest
		// remaining candidate that fits and gains a hit, and re-enter the
		// loop in case the new position unlocks more. Equal costs order by
		// query index — unique within a round — so the pick is
		// deterministic (see DESIGN.md, "Deterministic selection").
		fill, found, err := rs.cheapest(rctx, res.Hits+1, req.Budget)
		if err != nil {
			rsp.End()
			return nil, err
		}
		if found {
			if at, err = apply(w, req.Target, res, fill, req.Cost); err != nil {
				rsp.End()
				return res, err
			}
		}
		rsp.SetAttr("hits", res.Hits)
		rsp.End()
		if !found {
			break // nothing affordable gains a hit
		}
	}
	return res, nil
}
