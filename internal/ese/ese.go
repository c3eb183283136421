// Package ese implements Efficient Strategy Evaluation (Algorithm 2 of the
// paper): computing H(p_i + s), the number of top-k queries an improved
// object hits, without re-evaluating every query. For each competitor
// function f_l, the area between the old intersection hyperplane (Eq. 2) and
// the post-improvement one (Eq. 3) — the affected subspace — is retrieved
// from the query R-tree of an Algorithm 1 partition; queries inside it have
// the relative order of f_i and f_l switched (Fact 2), which adjusts the
// target's rank. Ranks are shared per subdomain, so at most one evaluation
// happens per subdomain, exactly as the paper prescribes.
//
// No solve reads this package: the solvers count hits with the Eq. 6 hit
// table (internal/core). It serves the figure runner (internal/bench),
// the benchmark's per-layer replay, and the tests as a second hit counter.
package ese

import (
	"context"
	"fmt"

	"iq/internal/obs"
	"iq/internal/rtree"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Evaluator computes hit counts for improvement strategies applied to one
// target object. It owns the partition it evaluates against and caches the
// per-subdomain target ranks (one evaluation per subdomain) and the base hit
// set, all reused across the strategies it is asked about.
type Evaluator struct {
	idx    *subdomain.Index
	w      *topk.Workload
	target int
	// part is the Algorithm 1 partition the cached state below derives
	// from. Every public entry point rebuilds both when the index has
	// mutated since part was built (Algorithm 2's cached rankings are only
	// valid within one index epoch).
	part *subdomain.Partition

	// rankBySub caches the target's candidate-restricted rank per
	// subdomain. Sharing one rank per subdomain is valid only when the
	// target is itself a candidate: the subdomain invariant fixes the
	// ordering of candidates, and a candidate target's position within it.
	rankBySub map[int]int
	// rankByQuery holds per-query base ranks for NON-candidate targets,
	// whose position among the candidates may differ between queries of
	// one subdomain (their intersections are not subdomain boundaries).
	rankByQuery []int
	baseHits    int
	baseSet     map[int]bool // query indices hit by the unimproved target

	// pairNormal caches coeff(target) − coeff(l) per competitor l: the
	// normal of the old intersection hyperplane (Eq. 2), fixed across the
	// many strategies one evaluator probes.
	pairNormal map[int]vec.Vector
	// scratch buffers avoid per-pair allocations in the hot path.
	scratchNew vec.Vector
	// scratchNewCoeff references the improved coefficient vector during
	// one computeDeltas pass.
	scratchNewCoeff vec.Vector
	domainLo        vec.Vector
	domainHi        vec.Vector
	// deltaBuf[j] accumulates the target's rank change at query j during
	// one evaluation; touched lists the non-zero entries for cheap reset.
	deltaBuf []int32
	touched  []int

	// ctx carries the creator's trace (if any) for ese/rebuild spans; an
	// evaluator is owned by one goroutine, so retaining the creator's
	// context here is sound. Never nil.
	ctx context.Context
}

// New builds an evaluator for the given target object over a partition the
// caller built, so that the caller can time Algorithm 1 apart from the
// evaluator's setup. A partition of an earlier epoch than its index's is
// rebuilt, with the same options, on the evaluator's first use.
func New(p *subdomain.Partition, target int) (*Evaluator, error) {
	if err := checkTarget(p.Index().Workload(), target); err != nil {
		return nil, err
	}
	return newEvaluator(context.Background(), p, target), nil
}

// NewCtx builds an evaluator for the given target over a partition of the
// index's current state with the default options. When ctx carries a trace,
// construction records an "ese/build" span with the partition's
// "index/partition" span inside, and later epoch-forced rebuilds record
// "ese/rebuild" spans against the same trace.
func NewCtx(ctx context.Context, idx *subdomain.Index, target int) (*Evaluator, error) {
	if err := checkTarget(idx.Workload(), target); err != nil {
		return nil, err
	}
	spCtx, sp := obs.StartSpan(ctx, "ese/build")
	defer sp.End()
	sp.SetAttr("target", target)
	return newEvaluator(ctx, subdomain.NewPartition(spCtx, idx, subdomain.PartitionOptions{}), target), nil
}

func checkTarget(w *topk.Workload, target int) error {
	if target < 0 || target >= w.NumObjects() {
		return fmt.Errorf("ese: target %d out of range", target)
	}
	if w.IsRemoved(target) {
		return fmt.Errorf("ese: target %d is removed", target)
	}
	return nil
}

func newEvaluator(ctx context.Context, p *subdomain.Partition, target int) *Evaluator {
	idx := p.Index()
	e := &Evaluator{idx: idx, w: idx.Workload(), target: target, part: p, ctx: ctx}
	e.rebuild()
	return e
}

// rebuild recomputes every cached structure from the index's current state
// and the evaluator's partition.
func (e *Evaluator) rebuild() {
	w, idx := e.w, e.idx
	e.rankBySub = map[int]int{}
	e.rankByQuery = nil
	e.baseHits = 0
	e.baseSet = map[int]bool{}
	e.pairNormal = make(map[int]vec.Vector, len(idx.Candidates()))
	e.deltaBuf = make([]int32, w.NumQueries())
	e.touched = e.touched[:0]
	dim := w.Space().QueryDim()
	e.scratchNew = make(vec.Vector, dim)
	// Query-domain bounding box for the slab prechecks.
	e.domainLo = make(vec.Vector, dim)
	e.domainHi = make(vec.Vector, dim)
	for i := 0; i < dim; i++ {
		e.domainLo[i], e.domainHi[i] = 1e308, -1e308
	}
	for j := 0; j < w.NumQueries(); j++ {
		p := w.Query(j).Point
		e.domainLo = vec.Min(e.domainLo, p)
		e.domainHi = vec.Max(e.domainHi, p)
	}
	if !idx.IsCandidate(e.target) {
		e.rankByQuery = make([]int, w.NumQueries())
	}
	for j := 0; j < w.NumQueries(); j++ {
		s := e.part.SubdomainOf(j)
		if s == nil {
			if e.rankByQuery != nil {
				e.rankByQuery[j] = -1
			}
			continue
		}
		var rank int
		if e.rankByQuery == nil {
			rank = e.rankFor(s, w.Coeff(e.target))
		} else {
			rank = w.RankAmong(idx.Candidates(), w.Coeff(e.target), e.target, w.Query(j).Point)
			e.rankByQuery[j] = rank
		}
		if rank <= w.Query(j).K {
			e.baseHits++
			e.baseSet[j] = true
		}
	}
}

// ensureFresh rebuilds the partition, with its options, and the caches when
// the index has mutated (a commit, or an object/query add/remove) since the
// partition was built. Under the epoch-snapshot System this never fires —
// each write produces a new immutable index — but direct Index users who
// mutate in place get correct answers instead of stale ranks or
// out-of-range buffer accesses.
func (e *Evaluator) ensureFresh() {
	if e.idx.Epoch() == e.part.Epoch() {
		return
	}
	spCtx, sp := obs.StartSpan(e.ctx, "ese/rebuild")
	defer sp.End()
	e.part = subdomain.NewPartition(spCtx, e.idx, e.part.Options())
	e.rebuild()
}

// baseRank returns the target's pre-improvement candidate rank at query j.
func (e *Evaluator) baseRank(j int) int {
	if e.rankByQuery != nil {
		return e.rankByQuery[j]
	}
	s := e.part.SubdomainOf(j)
	if s == nil {
		return -1
	}
	return e.rankBySub[s.ID] // filled during New
}

// Target returns the target object index.
func (e *Evaluator) Target() int { return e.target }

// BaseHits returns H(p_i), the hit count of the unimproved target.
func (e *Evaluator) BaseHits() int {
	e.ensureFresh()
	return e.baseHits
}

// rankFor returns (and caches) the target-coefficient rank within subdomain
// s, counted among the candidate objects at the representative query point —
// the "evaluate at most one query per subdomain" step of Algorithm 2.
func (e *Evaluator) rankFor(s *subdomain.Subdomain, coeff vec.Vector) int {
	if r, ok := e.rankBySub[s.ID]; ok {
		return r
	}
	rep := e.w.Query(s.Representative()).Point
	r := e.w.RankAmong(e.idx.Candidates(), coeff, e.target, rep)
	e.rankBySub[s.ID] = r
	return r
}

// Hits computes H(p_i + s) for a strategy expressed in raw attribute space.
func (e *Evaluator) Hits(s vec.Vector) (int, error) {
	attrs := vec.Add(e.w.Attrs(e.target), s)
	coeff, err := e.w.Space().Embed(attrs)
	if err != nil {
		return 0, fmt.Errorf("ese: embedding improved target: %w", err)
	}
	return e.HitsWithCoeff(coeff), nil
}

// HitsWithCoeff computes the hit count for a target whose embedded
// coefficient vector has become newCoeff. This is Algorithm 2's core: find
// the affected subspaces against every intersecting competitor, collect the
// rank switches, and patch the cached per-subdomain ranks.
func (e *Evaluator) HitsWithCoeff(newCoeff vec.Vector) int {
	e.ensureFresh()
	// H(p_i + s) = baseHits adjusted by the queries whose hit status flips
	// (Fact 1: queries outside every affected subspace keep their result).
	hits := e.baseHits
	e.switches(newCoeff, func(j int, hit bool) {
		if hit && !e.baseSet[j] {
			hits++
		} else if !hit && e.baseSet[j] {
			hits--
		}
	})
	return hits
}

// HitSet returns the indices of queries hit after moving the target to
// newCoeff.
func (e *Evaluator) HitSet(newCoeff vec.Vector) map[int]bool {
	e.ensureFresh()
	out := make(map[int]bool, e.baseHits)
	for j := range e.baseSet {
		out[j] = true
	}
	e.switches(newCoeff, func(j int, hit bool) {
		if hit {
			out[j] = true
		} else {
			delete(out, j)
		}
	})
	return out
}

// switches calls fn for every query at which the target's rank changes when
// its coefficients move to newCoeff, with whether the improved target hits
// that query.
func (e *Evaluator) switches(newCoeff vec.Vector, fn func(j int, hit bool)) {
	if vec.Equal(e.w.Coeff(e.target), newCoeff) {
		return
	}
	defer e.resetDeltas()
	for _, j := range e.computeDeltas(newCoeff) {
		d := int(e.deltaBuf[j])
		if d == 0 {
			continue
		}
		// A query can appear twice in touched when its delta crossed zero
		// mid-collection; zeroing after consumption keeps it idempotent.
		e.deltaBuf[j] = 0
		rank := e.baseRank(j)
		if rank < 0 {
			continue
		}
		fn(j, rank+d <= e.w.Query(j).K)
	}
}

// computeDeltas fills deltaBuf with the target's per-query rank changes and
// returns the touched query indices. Callers must resetDeltas afterwards.
func (e *Evaluator) computeDeltas(newCoeff vec.Vector) []int {
	tree := e.part.Tree()
	e.scratchNewCoeff = newCoeff
	e.touched = e.touched[:0]
	for _, l := range e.idx.Candidates() {
		if l == e.target || e.w.IsRemoved(l) {
			continue
		}
		e.collectSwitches(tree, l)
	}
	return e.touched
}

func (e *Evaluator) resetDeltas() {
	for _, j := range e.touched {
		e.deltaBuf[j] = 0
	}
	e.touched = e.touched[:0]
}

// pairNormalFor returns (caching) the old intersection normal for pair
// (target, l): coeff(target) − coeff(l).
func (e *Evaluator) pairNormalFor(l int) vec.Vector {
	if n, ok := e.pairNormal[l]; ok {
		return n
	}
	n := vec.Sub(e.w.Coeff(e.target), e.w.Coeff(l))
	e.pairNormal[l] = n
	return n
}

// dotRange returns the min and max of n·q over the box [lo,hi].
func dotRange(n, lo, hi vec.Vector) (minV, maxV float64) {
	for i, x := range n {
		if x > 0 {
			minV += x * lo[i]
			maxV += x * hi[i]
		} else {
			minV += x * hi[i]
			maxV += x * lo[i]
		}
	}
	return minV, maxV
}

// slabsMayIntersectBox is the allocation-free root/node precheck: can any
// point of the box switch sides between the old and new planes? Matches the
// conservative semantics of geom.SlabIntersectsBox (epsilon-inclusive).
func slabsMayIntersectBox(oldN, newN, lo, hi vec.Vector) bool {
	const eps = 1e-9
	oldMin, oldMax := dotRange(oldN, lo, hi)
	newMin, newMax := dotRange(newN, lo, hi)
	// Slab A: old ≤ 0 ∧ new > 0 — needs oldMin ≤ eps and newMax ≥ −eps.
	if oldMin <= eps && newMax >= -eps {
		return true
	}
	// Slab B: old > 0 ∧ new ≤ 0.
	return oldMax >= -eps && newMin <= eps
}

// collectSwitches finds the queries whose (target, l) order flips and
// accumulates rank deltas into deltaBuf. Both movement directions are
// handled: a strategy may improve the target past some competitors while
// falling behind others. The hot path avoids allocations (cached pair
// normals, scratch buffers) and decides order flips from the signs of the
// two intersection-plane normals — two dot products per visited query.
func (e *Evaluator) collectSwitches(tree *rtree.Tree, l int) {
	oldN := e.pairNormalFor(l)
	lCoeff := e.w.Coeff(l)
	newN := e.scratchNew
	moved := false
	for i := range newN {
		// newCoeff − lCoeff directly (not oldN + delta): keeps the sign
		// arithmetic as close as possible to scalar score comparisons.
		newN[i] = e.scratchNewCoeff[i] - lCoeff[i]
		if newN[i] != oldN[i] {
			moved = true
		}
	}
	if !moved {
		return // no movement relative to l
	}
	// Root precheck against the query-domain box: the common case for
	// small strategies is that the pair's relative order is fixed over the
	// whole domain both before and after, and no tree walk is needed.
	if !slabsMayIntersectBox(oldN, newN, e.domainLo, e.domainHi) {
		return
	}
	target := e.target
	tieBreak := target < l // order on exact score ties
	boxPred := func(lo, hi vec.Vector) bool {
		return slabsMayIntersectBox(oldN, newN, lo, hi)
	}
	visit := func(entry rtree.Entry) {
		q := entry.Point
		oldDiff := vec.Dot(oldN, q)
		oldBetter := oldDiff < 0 || (oldDiff == 0 && tieBreak)
		newDiff := vec.Dot(newN, q)
		newBetter := newDiff < 0 || (newDiff == 0 && tieBreak)
		if oldBetter == newBetter {
			return
		}
		j := entry.Key
		if e.deltaBuf[j] == 0 {
			e.touched = append(e.touched, j)
		}
		if newBetter {
			e.deltaBuf[j]-- // target overtakes l: rank improves
		} else {
			e.deltaBuf[j]++ // target falls behind l
		}
	}
	tree.SearchFunc(boxPred, alwaysTrue, visit)
}

func alwaysTrue(rtree.Entry) bool { return true }

// RanksCached reports how many base ranks the evaluator currently holds
// (per-subdomain for candidate targets, per-query otherwise).
func (e *Evaluator) RanksCached() int {
	if e.rankByQuery != nil {
		return len(e.rankByQuery)
	}
	return len(e.rankBySub)
}
