package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"iq/internal/lp"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// This file implements the paper's exhaustive search option (Section 4.2):
// the optimal improvement strategy found through mathematical optimisation,
// "only feasible for very small datasets". Subset enumeration over which
// queries to hit is combined with an exact min-cost-to-satisfy-all solve per
// subset (L2 via Dykstra projections, L1 via the simplex). Tests use it to
// measure the greedy heuristic's optimality gap.

// ErrExhaustiveTooLarge guards against accidental exponential blow-ups.
var ErrExhaustiveTooLarge = errors.New("core: instance too large for exhaustive search")

// ErrExhaustiveUnsupported is returned for cost functions or spaces without
// an exact multi-constraint solver.
var ErrExhaustiveUnsupported = errors.New("core: exhaustive search supports L2/L1 costs on linear spaces without bounds")

// exhaustiveLimit bounds the number of subsets enumerated.
const exhaustiveLimit = 2_000_000

// ExhaustiveMinCostCtx finds the optimal min-cost strategy by enumerating
// every τ-subset of queries and exactly solving the joint constraint
// system. Only linear spaces with L1/L2 costs and no bounds are supported.
// The subset enumeration — the exponential part — aborts when ctx fails,
// discarding any best-so-far strategy.
func ExhaustiveMinCostCtx(ctx context.Context, idx *subdomain.Index, req MinCostRequest) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "mincost-exhaustive")
	rec := newRecorder()
	res, err := exhaustiveMinCostSolve(ctx, idx, req, rec)
	st := finishSolve(ctx, "mincost-exhaustive", req.Target, start, rec, 0, err)
	endSolveSpan(span, st, err)
	if res != nil {
		res.Stats = st
	}
	return res, err
}

func exhaustiveMinCostSolve(ctx context.Context, idx *subdomain.Index, req MinCostRequest, rec *recorder) (*Result, error) {
	if err := validateCommon(idx, req.Target, req.Cost, req.Bounds); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if req.Bounds != nil {
		return nil, ErrExhaustiveUnsupported
	}
	w := idx.Workload()
	if !w.Space().Linear() {
		return nil, ErrExhaustiveUnsupported
	}
	m := w.LiveQueries()
	if req.Tau > m {
		return nil, fmt.Errorf("core: tau %d exceeds query count %d: %w", req.Tau, m, ErrGoalUnreachable)
	}
	if req.Tau <= 0 {
		d := len(w.Attrs(req.Target))
		return &Result{Strategy: vec.New(d)}, nil
	}
	if binomialExceeds(m, req.Tau, exhaustiveLimit) {
		return nil, ErrExhaustiveTooLarge
	}

	normals, rhs, free := constraintSystem(ctx, idx, req.Target, rec)
	// Queries with no k-th competitor are hit by anything; they reduce the
	// effective τ.
	effTau := req.Tau - free
	d := len(w.Attrs(req.Target))
	if effTau <= 0 {
		return finishExhaustive(idx, req.Target, req.Cost, vec.New(d))
	}

	bestCost := math.Inf(1)
	var bestS vec.Vector
	stop := stopEvery(ctx, 1024)
	chunks := newChunkSpans(ctx, 2048)
	forEachSubset(len(normals), effTau, func(subset []int) bool {
		if stop() {
			return false
		}
		chunks.tick()
		ns := make([]vec.Vector, len(subset))
		bs := make([]float64, len(subset))
		for i, r := range subset {
			ns[i] = normals[r]
			bs[i] = rhs[r]
		}
		t0 := rec.probeStart()
		s, err := solveJoint(req.Cost, ns, bs)
		rec.solveDone(t0)
		if err != nil {
			rec.pruned++
			return true
		}
		rec.cands++
		if c := req.Cost.Of(s); c < bestCost {
			bestCost, bestS = c, s
		}
		return true
	})
	chunks.close()
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if bestS == nil {
		return nil, ErrGoalUnreachable
	}
	return finishExhaustive(idx, req.Target, req.Cost, bestS)
}

// ExhaustiveMaxHitCtx finds the optimal max-hit strategy: the largest h
// for which some h-subset of queries is jointly hittable within the budget,
// searched from the largest subset size downward. The per-size subset
// enumerations abort when ctx fails, discarding partial search state.
func ExhaustiveMaxHitCtx(ctx context.Context, idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, "maxhit-exhaustive")
	rec := newRecorder()
	res, err := exhaustiveMaxHitSolve(ctx, idx, req, rec)
	st := finishSolve(ctx, "maxhit-exhaustive", req.Target, start, rec, 0, err)
	endSolveSpan(span, st, err)
	if res != nil {
		res.Stats = st
	}
	return res, err
}

func exhaustiveMaxHitSolve(ctx context.Context, idx *subdomain.Index, req MaxHitRequest, rec *recorder) (*Result, error) {
	if err := validateCommon(idx, req.Target, req.Cost, req.Bounds); err != nil {
		return nil, err
	}
	if err := checkBudget(req.Budget); err != nil {
		return nil, err
	}
	if req.Bounds != nil {
		return nil, ErrExhaustiveUnsupported
	}
	w := idx.Workload()
	if !w.Space().Linear() {
		return nil, ErrExhaustiveUnsupported
	}
	if w.LiveQueries() > 22 {
		return nil, ErrExhaustiveTooLarge // 2^22 subsets ceiling
	}
	normals, rhs, _ := constraintSystem(ctx, idx, req.Target, rec)
	d := len(w.Attrs(req.Target))
	stop := stopEvery(ctx, 1024)
	chunks := newChunkSpans(ctx, 2048)
	for h := len(normals); h >= 0; h-- {
		var bestS vec.Vector
		bestCost := math.Inf(1)
		if h == 0 {
			chunks.close()
			return finishExhaustive(idx, req.Target, req.Cost, vec.New(d))
		}
		forEachSubset(len(normals), h, func(subset []int) bool {
			if stop() {
				return false
			}
			chunks.tick()
			ns := make([]vec.Vector, len(subset))
			bs := make([]float64, len(subset))
			for i, r := range subset {
				ns[i] = normals[r]
				bs[i] = rhs[r]
			}
			t0 := rec.probeStart()
			s, err := solveJoint(req.Cost, ns, bs)
			rec.solveDone(t0)
			if err != nil {
				rec.pruned++
				return true
			}
			rec.cands++
			if c := req.Cost.Of(s); c <= req.Budget && c < bestCost {
				bestCost, bestS = c, s
			}
			return true
		})
		if err := CtxErr(ctx); err != nil {
			chunks.close()
			return nil, err
		}
		if bestS != nil {
			chunks.close()
			return finishExhaustive(idx, req.Target, req.Cost, bestS)
		}
	}
	chunks.close()
	return finishExhaustive(idx, req.Target, req.Cost, vec.New(d))
}

// constraintSystem builds, per live query with a k-th competitor, the
// halfspace the improved target must satisfy to hit it: normal·s ≤ rhs.
// free counts the live queries any strategy hits (fewer than k
// competitors); removed queries appear in neither.
func constraintSystem(ctx context.Context, idx *subdomain.Index, target int, rec *recorder) (normals []vec.Vector, rhs []float64, free int) {
	tab := hitTableFor(ctx, idx, target, rec)
	coeff := idx.Workload().Coeff(target)
	for r, j := range tab.rows {
		t, q := tab.kth[j], tab.pt(r)
		normals = append(normals, q)
		rhs = append(rhs, t-vec.Dot(coeff, q)-strictMargin(t))
	}
	return normals, rhs, len(tab.always)
}

// solveJoint exactly minimises the cost subject to every halfspace.
func solveJoint(cost Cost, normals []vec.Vector, rhs []float64) (vec.Vector, error) {
	switch cost.(type) {
	case L2Cost:
		return lp.MinL2ToSatisfyAll(normals, rhs)
	case L1Cost:
		if len(normals) == 0 {
			return vec.Vector{}, nil
		}
		d := len(normals[0])
		ones := make([]float64, d)
		for i := range ones {
			ones[i] = 1
		}
		a := make([][]float64, len(normals))
		for i := range normals {
			a[i] = normals[i]
		}
		s, _, err := lp.SolveFree(ones, ones, a, rhs)
		return s, err
	default:
		return nil, ErrExhaustiveUnsupported
	}
}

// finishExhaustive packages a strategy into a Result with its true hit
// count.
func finishExhaustive(idx *subdomain.Index, target int, cost Cost, s vec.Vector) (*Result, error) {
	w := idx.Workload()
	hits, err := w.HitsExact(vec.Add(w.Attrs(target), s), target)
	if err != nil {
		return nil, err
	}
	base, err := w.HitsExact(w.Attrs(target), target)
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: s, Cost: cost.Of(s), Hits: hits, BaseHits: base}, nil
}

// forEachSubset enumerates every size-k subset of {0..n-1}; visit returning
// false aborts the enumeration.
func forEachSubset(n, k int, visit func([]int) bool) {
	if k > n || k < 0 {
		return
	}
	subset := make([]int, k)
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == k {
			return visit(subset)
		}
		for i := start; i <= n-(k-depth); i++ {
			subset[depth] = i
			if !rec(i+1, depth+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// chunkSpans groups a subset enumeration's visits into fixed-size
// "enumerate" spans, so a traced exhaustive solve shows where enumeration
// time went without recording one span per subset (which would blow the
// trace's span budget within milliseconds). newChunkSpans returns nil when
// the solve is untraced, and every method is nil-safe, so the enumeration
// hot loop pays one pointer test per subset.
type chunkSpans struct {
	ctx     context.Context
	size    int
	inChunk int
	sp      *obs.Span
}

func newChunkSpans(ctx context.Context, size int) *chunkSpans {
	if obs.TraceFrom(ctx) == nil {
		return nil
	}
	return &chunkSpans{ctx: ctx, size: size}
}

// tick records one visited subset, rolling to a fresh span every `size`
// visits.
func (c *chunkSpans) tick() {
	if c == nil {
		return
	}
	if c.sp == nil || c.inChunk == c.size {
		c.close()
		_, c.sp = obs.StartSpan(c.ctx, "enumerate")
		c.inChunk = 0
	}
	c.inChunk++
}

// close ends the open chunk span, stamping how many subsets it covered.
func (c *chunkSpans) close() {
	if c == nil || c.sp == nil {
		return
	}
	c.sp.SetAttr("subsets", c.inChunk)
	c.sp.End()
	c.sp = nil
}

// stopEvery returns a closure that polls ctx once per `stride` calls (and
// stays tripped once it has observed a failure), amortising ctx.Err's cost
// over the millions of cheap visits a subset enumeration makes.
func stopEvery(ctx context.Context, stride int) func() bool {
	calls, stopped := 0, false
	return func() bool {
		if stopped {
			return true
		}
		calls++
		if calls%stride == 0 && ctx.Err() != nil {
			stopped = true
		}
		return stopped
	}
}

// binomialExceeds reports whether C(n,k) exceeds limit without overflowing.
func binomialExceeds(n, k, limit int) bool {
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
		if c > float64(limit) {
			return true
		}
	}
	return false
}
