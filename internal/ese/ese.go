// Package ese implements Efficient Strategy Evaluation (Algorithm 2 of the
// paper): computing H(p_i + s), the number of top-k queries an improved
// object hits, without re-evaluating every query. For each competitor
// function f_l, the area between the old intersection hyperplane (Eq. 2) and
// the post-improvement one (Eq. 3) — the affected subspace — is retrieved
// from the query R-tree; queries inside it have the relative order of f_i and
// f_l switched (Fact 2), which adjusts the target's rank. Ranks are shared
// per subdomain, so at most one evaluation happens per subdomain, exactly as
// the paper prescribes.
package ese

import (
	"context"
	"fmt"
	"math"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/rtree"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Evaluator-side work counters, exported at /metrics. Pair-level events
// (slab searches, root prunes) are far too hot for a shared atomic —
// concurrent evaluations would serialise on the cache line — so each
// evaluator accumulates them in plain local fields and flushes once per
// evaluation (see flushPending).
var (
	mEvaluatorsBuilt = obs.Default.Counter("iq_ese_evaluators_built_total",
		"ESE evaluators constructed.")
	mRebuilds = obs.Default.Counter("iq_ese_rebuilds_total",
		"Evaluator cache rebuilds forced by index epoch changes.")
	mEvaluations = obs.Default.Counter("iq_ese_evaluations_total",
		"Hit-count evaluations (Algorithm 2 runs).")
	mSlabSearches = obs.Default.Counter("iq_ese_slab_searches_total",
		"R-tree slab searches for affected subspaces.")
	mRootPrunes = obs.Default.Counter("iq_ese_root_prunes_total",
		"Competitor pairs pruned by the root slab precheck.")
	mQueriesTouched = obs.Default.Counter("iq_ese_queries_touched_total",
		"Queries visited during rank-switch collection.")
	mRankCacheHits = obs.Default.Counter("iq_ese_rank_cache_hits_total",
		"Per-subdomain rank cache hits.")
	mRankCacheMisses = obs.Default.Counter("iq_ese_rank_cache_misses_total",
		"Per-subdomain rank cache misses (one top-k evaluation each).")
	mHitMemoHits = obs.Default.Counter("iq_ese_hit_memo_hits_total",
		"Hit-count evaluations answered from the per-evaluator coefficient memo.")
)

// hitMemoMax bounds the per-evaluator coefficient→hits memo. Entries are a
// few dozen bytes each, so the worst case per evaluator stays well under a
// megabyte; the memo is dropped wholesale on every epoch rebuild.
const hitMemoMax = 1 << 13

// Evaluator computes hit counts for improvement strategies applied to one
// target object. It caches per-subdomain target ranks (one evaluation per
// subdomain) and the base hit count, both reused across the many strategy
// candidates Algorithms 3 and 4 probe.
type Evaluator struct {
	idx    *subdomain.Index
	w      *topk.Workload
	target int
	// epoch tags the cached state below with the index epoch it was
	// derived from; every public entry point rebuilds when the index has
	// mutated since (Algorithm 2's cached rankings are only valid within
	// one index epoch).
	epoch uint64

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
	// baseBits mirrors baseSet as a bitset so the solvers' hot round loops
	// can copy the base hit set without allocating a map.
	baseBits *bitset.Bits

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

	// hitMemo caches HitsWithCoeff results by the improved coefficient
	// vector's bit pattern. Hit counts are a pure function of (epoch,
	// target, newCoeff), so within one epoch a memoised answer is the
	// previously computed one. Cleared by rebuild on epoch change.
	hitMemo map[string]int
	keyBuf  []byte // scratch for the memo key (no alloc on the hit path)

	// Pair-level event counts staged locally (the evaluator is owned by
	// one goroutine) and flushed to the package counters per evaluation.
	pendSlab  int64
	pendPrune int64

	// ctx carries the creator's trace (if any) for ese/rebuild spans; an
	// evaluator is owned by one goroutine, so retaining the creator's
	// context here is sound. Never nil.
	ctx context.Context
}

// New builds an evaluator for the given target object index.
func New(idx *subdomain.Index, target int) (*Evaluator, error) {
	return NewCtx(context.Background(), idx, target)
}

// NewCtx is New with tracing: when ctx carries a trace, construction records
// an "ese/build" span and later epoch-forced rebuilds record "ese/rebuild"
// spans against the same trace, each with the index's "index/partition"
// span inside when the evaluator is the partition's first reader.
func NewCtx(ctx context.Context, idx *subdomain.Index, target int) (*Evaluator, error) {
	w := idx.Workload()
	if target < 0 || target >= w.NumObjects() {
		return nil, fmt.Errorf("ese: target %d out of range", target)
	}
	if w.IsRemoved(target) {
		return nil, fmt.Errorf("ese: target %d is removed", target)
	}
	e := &Evaluator{idx: idx, w: w, target: target, ctx: ctx}
	spCtx, sp := obs.StartSpan(ctx, "ese/build")
	sp.SetAttr("target", target)
	idx.Partition(spCtx)
	e.rebuild()
	sp.End()
	mEvaluatorsBuilt.Inc()
	return e, nil
}

// rebuild recomputes every cached structure from the index's current state
// and tags the evaluator with the index epoch.
func (e *Evaluator) rebuild() {
	w, idx := e.w, e.idx
	e.epoch = idx.Epoch()
	e.rankBySub = map[int]int{}
	e.rankByQuery = nil
	e.baseHits = 0
	e.baseSet = map[int]bool{}
	if e.baseBits == nil {
		e.baseBits = bitset.New(w.NumQueries())
	} else {
		e.baseBits.Grow(w.NumQueries())
		e.baseBits.Reset()
	}
	e.pairNormal = make(map[int]vec.Vector, len(idx.Candidates()))
	e.hitMemo = make(map[string]int)
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
		s := idx.SubdomainOf(j)
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
			e.baseBits.Set(j)
		}
	}
}

// ensureFresh invalidates and rebuilds the caches when the index has
// mutated (a commit, or an object/query add/remove) since they were
// computed. Under the epoch-snapshot System this never fires — each write
// produces a new immutable index — but direct Index users who mutate in
// place get correct answers instead of stale ranks or out-of-range buffer
// accesses.
func (e *Evaluator) ensureFresh() {
	if e.idx.Epoch() != e.epoch {
		mRebuilds.Inc()
		spCtx, sp := obs.StartSpan(e.ctx, "ese/rebuild")
		e.idx.Partition(spCtx)
		e.rebuild()
		sp.End()
	}
}

// baseRank returns the target's pre-improvement candidate rank at query j.
func (e *Evaluator) baseRank(j int) int {
	if e.rankByQuery != nil {
		return e.rankByQuery[j]
	}
	s := e.idx.SubdomainOf(j)
	if s == nil {
		return -1
	}
	return e.rankBySub[s.ID] // filled during New
}

// Target returns the target object index.
func (e *Evaluator) Target() int { return e.target }

// Index returns the subdomain index the evaluator was built against.
func (e *Evaluator) Index() *subdomain.Index { return e.idx }

// BaseHits returns H(p_i), the hit count of the unimproved target.
func (e *Evaluator) BaseHits() int {
	e.ensureFresh()
	return e.baseHits
}

// BaseHit reports whether the unimproved target hits query j.
func (e *Evaluator) BaseHit(j int) bool {
	e.ensureFresh()
	return e.baseSet[j]
}

// BaseHitSet fills dst with the unimproved target's hit set — the bitset
// equivalent of querying BaseHit for every j — growing dst to the workload's
// query count.
func (e *Evaluator) BaseHitSet(dst *bitset.Bits) {
	e.ensureFresh()
	dst.CopyFrom(e.baseBits)
}

// rankFor returns (and caches) the target-coefficient rank within subdomain
// s, counted among the candidate objects at the representative query point —
// the "evaluate at most one query per subdomain" step of Algorithm 2.
func (e *Evaluator) rankFor(s *subdomain.Subdomain, coeff vec.Vector) int {
	if r, ok := e.rankBySub[s.ID]; ok {
		mRankCacheHits.Inc()
		return r
	}
	mRankCacheMisses.Inc()
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
	oldCoeff := e.w.Coeff(e.target)
	if vec.Equal(oldCoeff, newCoeff) {
		return e.baseHits
	}
	key := e.memoKey(newCoeff)
	if h, ok := e.hitMemo[string(key)]; ok {
		mHitMemoHits.Inc()
		return h
	}
	touched := e.computeDeltas(newCoeff)
	// H(p_i + s) = baseHits adjusted by the queries whose hit status flips
	// (Fact 1: queries outside every affected subspace keep their result).
	hits := e.baseHits
	for _, j := range touched {
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
		k := e.w.Query(j).K
		before := rank <= k
		after := rank+d <= k
		if !before && after {
			hits++
		} else if before && !after {
			hits--
		}
	}
	e.flushPending(len(touched))
	e.resetDeltas()
	if len(e.hitMemo) < hitMemoMax {
		e.hitMemo[string(key)] = hits
	}
	return hits
}

// memoKey serialises newCoeff's exact bit pattern into the evaluator's key
// scratch buffer. Float64bits keys distinguish every representable vector —
// a colliding key is a byte-identical vector, whose hit count is identical —
// and map lookups through string(keyBuf) do not allocate. The one
// numerically-equal-but-bitwise-distinct pair, -0.0 vs +0.0, is normalised
// to +0.0: every score and sign computation treats them identically, so
// splitting them across two memo entries would only waste a slot and a cold
// evaluation.
func (e *Evaluator) memoKey(newCoeff vec.Vector) []byte {
	buf := e.keyBuf[:0]
	for _, x := range newCoeff {
		b := math.Float64bits(x)
		if b == 1<<63 { // -0.0 == +0.0; key them identically
			b = 0
		}
		buf = append(buf,
			byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	e.keyBuf = buf
	return buf
}

// flushPending publishes one evaluation's staged counters: a handful of
// atomic adds per evaluation instead of one per competitor pair.
func (e *Evaluator) flushPending(touched int) {
	mEvaluations.Inc()
	mQueriesTouched.Add(int64(touched))
	if e.pendSlab != 0 {
		mSlabSearches.Add(e.pendSlab)
		e.pendSlab = 0
	}
	if e.pendPrune != 0 {
		mRootPrunes.Add(e.pendPrune)
		e.pendPrune = 0
	}
}

// computeDeltas fills deltaBuf with the target's per-query rank changes and
// returns the touched query indices. Callers must resetDeltas afterwards.
func (e *Evaluator) computeDeltas(newCoeff vec.Vector) []int {
	tree := e.idx.Tree()
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

// HitSet returns the indices of queries hit after moving the target to
// newCoeff; used by the combinatorial (multi-target) algorithms which must
// de-duplicate hits across targets.
func (e *Evaluator) HitSet(newCoeff vec.Vector) map[int]bool {
	e.ensureFresh()
	oldCoeff := e.w.Coeff(e.target)
	out := make(map[int]bool, e.baseHits)
	for j := range e.baseSet {
		out[j] = true
	}
	if vec.Equal(oldCoeff, newCoeff) {
		return out
	}
	touched := e.computeDeltas(newCoeff)
	e.flushPending(len(touched))
	defer e.resetDeltas()
	for _, j := range touched {
		d := int(e.deltaBuf[j])
		if d == 0 {
			continue
		}
		e.deltaBuf[j] = 0 // idempotent under duplicate touched entries
		rank := e.baseRank(j)
		if rank < 0 {
			continue
		}
		k := e.w.Query(j).K
		if rank+d <= k {
			out[j] = true
		} else {
			delete(out, j)
		}
	}
	return out
}

// HitSetBits is HitSet for the allocation-free solver hot path: it fills dst
// (grown to the workload's query count) with the indices of queries hit after
// moving the target to newCoeff, instead of building a fresh map. The bit
// contents are exactly the key set HitSet would return.
func (e *Evaluator) HitSetBits(newCoeff vec.Vector, dst *bitset.Bits) {
	e.ensureFresh()
	dst.CopyFrom(e.baseBits)
	oldCoeff := e.w.Coeff(e.target)
	if vec.Equal(oldCoeff, newCoeff) {
		return
	}
	touched := e.computeDeltas(newCoeff)
	e.flushPending(len(touched))
	defer e.resetDeltas()
	for _, j := range touched {
		d := int(e.deltaBuf[j])
		if d == 0 {
			continue
		}
		e.deltaBuf[j] = 0 // idempotent under duplicate touched entries
		rank := e.baseRank(j)
		if rank < 0 {
			continue
		}
		k := e.w.Query(j).K
		if rank+d <= k {
			dst.Set(j)
		} else {
			dst.Clear(j)
		}
	}
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
		e.pendPrune++
		return
	}
	e.pendSlab++
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
// (per-subdomain for candidate targets, per-query otherwise). The work
// counters that used to live here are process-wide obs series now — see the
// iq_ese_* counters at the top of this file.
func (e *Evaluator) RanksCached() int {
	if e.rankByQuery != nil {
		return len(e.rankByQuery)
	}
	return len(e.rankBySub)
}
