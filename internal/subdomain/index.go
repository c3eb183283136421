// Package subdomain implements the paper's query index (Section 4.1,
// Algorithm 1): the intersections of object functions partition the query
// (weight) space into subdomains; all query points inside one subdomain
// share the same ranking of the functions, so at most one query per
// subdomain ever needs evaluating. Query points are grouped by subdomain,
// indexed in an R-tree for affected-subspace (slab) retrieval, and subdomain
// boundaries are tracked — with a Bloom filter in front, as Section 4.3
// prescribes — to support object and query updates.
//
// Partitioning intersections are restricted to the workload's k-skyband
// candidates: only those objects can appear in any top-k result, so queries
// grouped by candidate-pair sign vectors share their top-k results exactly
// (see DESIGN.md, "Arrangement scale"). A final signature-refinement pass
// guarantees the grouping invariant even when the intersection budget is
// capped.
package subdomain

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"iq/internal/bloom"
	"iq/internal/geom"
	"iq/internal/obs"
	"iq/internal/rtree"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Options configures index construction.
type Options struct {
	// TreeFanout is the R-tree max entries per node (default 16).
	TreeFanout int
	// Slack widens the candidate skyband beyond MaxK (default 1, the
	// minimum that stays sound when a target object is degraded).
	Slack int
	// MaxIntersections caps how many candidate-pair intersections
	// Algorithm 1 processes (0 = all). The signature refinement keeps the
	// grouping sound regardless; a cap trades boundary bookkeeping detail
	// for indexing speed.
	MaxIntersections int
	// SkipRefinement disables the signature-refinement pass. Only safe
	// when MaxIntersections is 0; exposed for the ablation benchmarks.
	SkipRefinement bool
}

func (o Options) withDefaults() Options {
	if o.TreeFanout <= 0 {
		o.TreeFanout = rtree.DefaultMaxEntries
	}
	if o.Slack <= 0 {
		o.Slack = 1
	}
	return o
}

// Boundary records that the intersection of candidate objects A and B bounds
// a subdomain, which lies on Side of it.
type Boundary struct {
	A, B int
	Side geom.Side
}

// Subdomain groups the query points sharing one function ranking.
type Subdomain struct {
	ID         int
	Boundaries []Boundary
	Queries    []int // workload query indices
	// rep is the representative query index used for cached evaluation.
	rep int
}

// Index is the complete query index.
type Index struct {
	w          *topk.Workload
	opts       Options
	tree       *rtree.Tree
	subs       map[int]*Subdomain
	queryToSub []int        // query index -> subdomain ID (-1 when absent)
	removedQ   map[int]bool // queries removed via RemoveQuery
	nextSubID  int
	candidates []int
	candSet    map[int]bool
	// boundaryFilter fronts boundaryIndex, as in Section 4.3.
	boundaryFilter *bloom.Filter
	boundaryIndex  map[[2]int][]int // object pair -> subdomain IDs it bounds
	// intersectionsProcessed counts Algorithm 1 split steps, reported by
	// the benchmark harness.
	intersectionsProcessed int
	// epoch increments on every mutating operation (object/query add,
	// remove, update). Consumers that cache derived state — the ESE
	// evaluator's per-subdomain ranks, the solvers' hit tables — tag their
	// caches with it and rebuild when it moves. Since the dirty-set layer
	// the epoch orders versions; it is no longer the invalidation signal
	// itself (see DirtySet).
	epoch uint64
	// memo holds what the layers above derive from this snapshot (see
	// Memo). Clones start with an empty one.
	memo sync.Map
	// pending accumulates the dirty set of every mutation since the last
	// TakeDirty; nil until the first mutation. Clones start with a fresh
	// accumulator — their caches were exact at clone time.
	pending *DirtySet
	// Batch mode (BeginBatch/EndBatch): mutations dissolve affected
	// subdomains eagerly — keeping the boundary tables and query mapping
	// consistent for subsequent operations — but defer the expensive
	// partitioning of the orphaned queries, coalescing N mutations into one
	// partitionQueries run at EndBatch.
	batching      bool
	batchDeferred bool     // at least one repartition was deferred
	batchAllPairs bool     // some deferred repartition wanted the full pair set
	batchPairs    [][2]int // union of deferred pair restrictions
	batchPairSeen map[[2]int]bool
}

// Build constructs the index over the workload per Algorithm 1.
func Build(w *topk.Workload, opts Options) (*Index, error) {
	return BuildCtx(context.Background(), w, opts)
}

// BuildCtx is Build with tracing: when ctx carries a trace, construction
// records an "index/build" span stamped with the resulting shape.
func BuildCtx(ctx context.Context, w *topk.Workload, opts Options) (*Index, error) {
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "index/build")
	defer sp.End()
	opts = opts.withDefaults()
	if w.Space().QueryDim() < 1 {
		return nil, errors.New("subdomain: query space has dimension 0")
	}
	idx := &Index{
		w:              w,
		opts:           opts,
		subs:           map[int]*Subdomain{},
		queryToSub:     make([]int, w.NumQueries()),
		removedQ:       map[int]bool{},
		boundaryFilter: bloom.NewWithEstimates(4*w.NumQueries()+64, 0.01),
		boundaryIndex:  map[[2]int][]int{},
	}
	if m := w.NumQueries(); m > 0 {
		// STR bulk loading: faster than insertion and lower node overlap,
		// which tightens the evaluator's slab searches.
		points := make([]vec.Vector, m)
		keys := make([]int, m)
		for j := 0; j < m; j++ {
			points[j] = w.Query(j).Point
			keys[j] = j
			idx.queryToSub[j] = -1
		}
		idx.tree = rtree.BulkLoad(points, keys, opts.TreeFanout)
	} else {
		idx.tree = rtree.New(w.Space().QueryDim(), opts.TreeFanout)
	}
	idx.candidates = w.Candidates(opts.Slack)
	idx.candSet = make(map[int]bool, len(idx.candidates))
	for _, c := range idx.candidates {
		idx.candSet[c] = true
	}
	idx.partitionAll()
	mBuilds.Inc()
	mBuildSeconds.Observe(time.Since(start).Seconds())
	idx.publishShape()
	sp.SetAttr("queries", w.NumQueries())
	sp.SetAttr("subdomains", len(idx.subs))
	sp.SetAttr("candidates", len(idx.candidates))
	return idx, nil
}

// partitionAll runs Algorithm 1 over all queries.
func (x *Index) partitionAll() {
	all := make([]int, x.w.NumQueries())
	for j := range all {
		all[j] = j
	}
	x.partitionQueries(all, nil, false)
}

// group is Algorithm 1's working unit: a set of queries plus the boundaries
// accumulated so far and a bounding box for cheap split rejection.
type group struct {
	queries    []int
	boundaries []Boundary
	lo, hi     vec.Vector
}

func (x *Index) newGroup(queries []int, boundaries []Boundary) *group {
	g := &group{queries: queries, boundaries: boundaries}
	d := x.w.Space().QueryDim()
	g.lo = make(vec.Vector, d)
	g.hi = make(vec.Vector, d)
	for i := 0; i < d; i++ {
		g.lo[i], g.hi[i] = 1e308, -1e308
	}
	for _, q := range queries {
		p := x.w.Query(q).Point
		g.lo = vec.Min(g.lo, p)
		g.hi = vec.Max(g.hi, p)
	}
	return g
}

// partitionQueries groups the given queries by candidate-pair intersections
// (Algorithm 1) and registers the resulting subdomains. pairs restricts the
// intersections considered (nil = all candidate pairs); updates pass only
// the newly created intersections, as Section 4.3 describes, and set
// forceRefine because a pair-restricted split alone cannot guarantee the
// grouping invariant.
func (x *Index) partitionQueries(queries []int, pairs [][2]int, forceRefine bool) {
	if len(queries) == 0 {
		return
	}
	// Line 1-5 of Algorithm 1: a single subdomain holding every query.
	groups := []*group{x.newGroup(queries, nil)}

	if pairs == nil {
		pairs = x.allCandidatePairs()
	}
	budget := x.opts.MaxIntersections
	// Lines 6-26: split groups one intersection at a time.
	for _, pair := range pairs {
		if budget > 0 && x.intersectionsProcessed >= budget {
			break
		}
		multi := false
		for _, g := range groups {
			if len(g.queries) > 1 {
				multi = true
				break
			}
		}
		if !multi {
			break // every group is a singleton; no split can matter
		}
		plane := geom.IntersectionPlane(x.w.Coeff(pair[0]), x.w.Coeff(pair[1]))
		if plane.IsDegenerate(1e-12) {
			continue
		}
		x.intersectionsProcessed++
		var next []*group
		for _, g := range groups {
			if len(g.queries) <= 1 || !planeMaySplitBox(plane, g.lo, g.hi) {
				next = append(next, g)
				continue
			}
			var above, below []int
			for _, q := range g.queries {
				if plane.SideOf(x.w.Query(q).Point) == geom.Above {
					above = append(above, q)
				} else {
					below = append(below, q)
				}
			}
			if len(above) == 0 || len(below) == 0 {
				next = append(next, g)
				continue
			}
			bAbove := append(append([]Boundary{}, g.boundaries...),
				Boundary{A: pair[0], B: pair[1], Side: geom.Above})
			bBelow := append(append([]Boundary{}, g.boundaries...),
				Boundary{A: pair[0], B: pair[1], Side: geom.Below})
			next = append(next, x.newGroup(above, bAbove), x.newGroup(below, bBelow))
		}
		groups = next
	}

	// Signature refinement: guarantee the invariant "same subdomain ⇒ same
	// candidate ranking" even under an intersection cap or numerically
	// degenerate planes.
	if forceRefine || !x.opts.SkipRefinement {
		var refined []*group
		for _, g := range groups {
			refined = append(refined, x.refineBySignature(g)...)
		}
		groups = refined
	}

	for _, g := range groups {
		x.registerSubdomain(g)
	}
}

// planeMaySplitBox reports whether the hyperplane can separate points inside
// the box (conservative).
func planeMaySplitBox(h geom.Hyperplane, lo, hi vec.Vector) bool {
	minV, maxV := h.Offset, h.Offset
	for i, n := range h.Normal {
		if n > 0 {
			minV += n * lo[i]
			maxV += n * hi[i]
		} else {
			minV += n * hi[i]
			maxV += n * lo[i]
		}
	}
	return minV <= 0 && maxV > 0
}

// refineBySignature splits a group by full candidate-ranking signature.
func (x *Index) refineBySignature(g *group) []*group {
	if len(g.queries) <= 1 {
		return []*group{g}
	}
	bySig := map[uint64][]int{}
	var order []uint64
	for _, q := range g.queries {
		sig := x.rankingSignature(x.w.Query(q).Point)
		if _, ok := bySig[sig]; !ok {
			order = append(order, sig)
		}
		bySig[sig] = append(bySig[sig], q)
	}
	if len(order) == 1 {
		return []*group{g}
	}
	out := make([]*group, 0, len(order))
	for _, sig := range order {
		out = append(out, x.newGroup(bySig[sig], g.boundaries))
	}
	return out
}

// rankingSignature hashes the full ordering of candidate objects at query
// point q.
func (x *Index) rankingSignature(q vec.Vector) uint64 {
	type sc struct {
		id    int
		score float64
	}
	scores := make([]sc, len(x.candidates))
	for i, c := range x.candidates {
		scores[i] = sc{id: c, score: vec.Dot(x.w.Coeff(c), q)}
	}
	sort.Slice(scores, func(a, b int) bool {
		return topk.Better(scores[a].score, scores[a].id, scores[b].score, scores[b].id)
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range scores {
		v := uint64(s.id)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// registerSubdomain files a finished group as a subdomain.
func (x *Index) registerSubdomain(g *group) {
	if len(g.queries) == 0 {
		return // line 19-24: empty subdomains are discarded
	}
	s := &Subdomain{ID: x.nextSubID, Boundaries: g.boundaries, Queries: g.queries, rep: g.queries[0]}
	x.nextSubID++
	x.subs[s.ID] = s
	for _, q := range g.queries {
		x.queryToSub[q] = s.ID
	}
	for _, b := range g.boundaries {
		key := pairKey(b.A, b.B)
		x.boundaryFilter.AddPair(key[0], key[1])
		x.boundaryIndex[key] = append(x.boundaryIndex[key], s.ID)
	}
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// allCandidatePairs enumerates the candidate object pairs whose intersection
// hyperplane can actually separate query points, pruning the rest:
//
//   - When the query points' affine hull is one-dimensional (e.g. normalised
//     2-D weights lie on the line w₁+w₂ = 1), every candidate function
//     restricted to the hull is a segment, and the plane-sweep intersection
//     discovery the paper cites ([15], Nievergelt–Preparata) finds exactly
//     the crossing pairs.
//   - Otherwise a box-straddle filter keeps a pair only when its hyperplane
//     separates the corners of the query bounding box (exact for boxes,
//     conservative for the point cloud inside).
func (x *Index) allCandidatePairs() [][2]int {
	if x.w.NumQueries() == 0 || len(x.candidates) < 2 {
		return nil
	}
	lo := vec.Clone(x.w.Query(0).Point)
	hi := vec.Clone(lo)
	for j := 1; j < x.w.NumQueries(); j++ {
		p := x.w.Query(j).Point
		lo = vec.Min(lo, p)
		hi = vec.Max(hi, p)
	}
	if a, b, ok := x.queryHullSegment(); ok {
		return x.sweepPairs(a, b)
	}
	return x.boxFilteredPairs(lo, hi)
}

// queryHullSegment reports whether every query point lies (within tolerance)
// on one line segment — e.g. weight vectors normalised to sum 1 in two
// dimensions — returning the segment's endpoints. The line direction comes
// from the point farthest from an arbitrary anchor, not the bounding-box
// diagonal (which points the wrong way for anti-correlated lines).
func (x *Index) queryHullSegment() (a, b vec.Vector, ok bool) {
	m := x.w.NumQueries()
	anchor := x.w.Query(0).Point
	far := anchor
	farDist := 0.0
	for j := 1; j < m; j++ {
		p := x.w.Query(j).Point
		if d := vec.Dist2(anchor, p); d > farDist {
			far, farDist = p, d
		}
	}
	if farDist == 0 {
		return anchor, anchor, true // all queries identical
	}
	dir := vec.Sub(far, anchor)
	vec.ScaleInPlace(dir, 1/farDist)
	tol := 1e-9 * (1 + farDist)
	tMin, tMax := 0.0, 0.0
	for j := 0; j < m; j++ {
		rel := vec.Sub(x.w.Query(j).Point, anchor)
		t := vec.Dot(rel, dir)
		perp := vec.Sub(rel, vec.Scale(dir, t))
		if vec.Norm2(perp) > tol {
			return nil, nil, false
		}
		if t < tMin {
			tMin = t
		}
		if t > tMax {
			tMax = t
		}
	}
	a = vec.Add(anchor, vec.Scale(dir, tMin))
	b = vec.Add(anchor, vec.Scale(dir, tMax))
	return a, b, true
}

// sweepPairs finds the candidate pairs whose score functions cross along the
// query segment [a, b] with the plane sweep: candidate c's score over the
// segment is the line t ↦ coeff·(a + t·(b−a)).
func (x *Index) sweepPairs(a, b vec.Vector) [][2]int {
	segs := make([]geom.Segment, len(x.candidates))
	for i, c := range x.candidates {
		coeff := x.w.Coeff(c)
		segs[i] = geom.Segment{
			A:  geom.Point2{X: 0, Y: vec.Dot(coeff, a)},
			B:  geom.Point2{X: 1, Y: vec.Dot(coeff, b)},
			ID: i,
		}
	}
	hits := geom.SweepIntersections(segs)
	pairs := make([][2]int, 0, len(hits))
	seen := map[[2]int]bool{}
	for _, h := range hits {
		key := pairKey(x.candidates[h.SegA], x.candidates[h.SegB])
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, key)
		}
	}
	return pairs
}

// boxFilteredPairs keeps the pairs whose hyperplane straddles the query
// bounding box: min and max of normal·q over the box must bracket zero.
func (x *Index) boxFilteredPairs(lo, hi vec.Vector) [][2]int {
	n := len(x.candidates)
	pairs := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		ci := x.w.Coeff(x.candidates[i])
		for j := i + 1; j < n; j++ {
			cj := x.w.Coeff(x.candidates[j])
			minV, maxV := 0.0, 0.0
			for d := range ci {
				nd := ci[d] - cj[d]
				if nd > 0 {
					minV += nd * lo[d]
					maxV += nd * hi[d]
				} else {
					minV += nd * hi[d]
					maxV += nd * lo[d]
				}
			}
			if minV <= 1e-12 && maxV >= -1e-12 {
				pairs = append(pairs, [2]int{x.candidates[i], x.candidates[j]})
			}
		}
	}
	return pairs
}

// Workload returns the underlying workload.
func (x *Index) Workload() *topk.Workload { return x.w }

// Memo returns the index's store for state that the layers above derive
// from this snapshot — the solvers key their hit tables by target here — so
// that the state lives exactly as long as the snapshot. Clone never copies
// it. Entries do not follow in-place mutations: consumers check Epoch.
func (x *Index) Memo() *sync.Map { return &x.memo }

// Epoch returns the index's mutation counter. It changes whenever an
// object or query is added, removed, or updated, invalidating any caches
// derived from the index's groupings.
func (x *Index) Epoch() uint64 { return x.epoch }

// Clone returns an independent copy of the index bound to workload w, which
// must be a Clone of the index's current workload (the two structures are
// updated in lockstep, so they must be snapshotted together). All grouping
// state — subdomains, boundary tables, the query R-tree, and the Bloom
// filter — is deep-copied; mutating either index afterwards never affects
// the other. This is the write-path primitive for epoch-based snapshots:
// writers clone, mutate the clone, and publish it, while in-flight readers
// keep their immutable epoch.
func (x *Index) Clone(w *topk.Workload) *Index {
	return x.CloneCtx(context.Background(), w)
}

// CloneCtx is Clone with tracing: when ctx carries a trace, the copy records
// an "index/clone" span (the write path's fixed cost under the epoch
// snapshot scheme).
func (x *Index) CloneCtx(ctx context.Context, w *topk.Workload) *Index {
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "index/clone")
	defer sp.End()
	c := &Index{
		w:                      w,
		opts:                   x.opts,
		tree:                   x.tree.Clone(),
		subs:                   make(map[int]*Subdomain, len(x.subs)),
		queryToSub:             append([]int(nil), x.queryToSub...),
		removedQ:               make(map[int]bool, len(x.removedQ)),
		nextSubID:              x.nextSubID,
		candidates:             append([]int(nil), x.candidates...),
		candSet:                make(map[int]bool, len(x.candSet)),
		boundaryFilter:         x.boundaryFilter.Clone(),
		boundaryIndex:          make(map[[2]int][]int, len(x.boundaryIndex)),
		intersectionsProcessed: x.intersectionsProcessed,
		epoch:                  x.epoch,
		// pending stays nil: the clone's caches (keyed by the clone's
		// identity) do not exist yet, so its dirty window starts empty —
		// TakeDirty after mutating the clone describes exactly the delta
		// from the cloned state.
	}
	for id, s := range x.subs {
		c.subs[id] = &Subdomain{
			ID:         s.ID,
			Boundaries: append([]Boundary(nil), s.Boundaries...),
			Queries:    append([]int(nil), s.Queries...),
			rep:        s.rep,
		}
	}
	for j := range x.removedQ {
		c.removedQ[j] = true
	}
	for id := range x.candSet {
		c.candSet[id] = true
	}
	for key, subs := range x.boundaryIndex {
		c.boundaryIndex[key] = append([]int(nil), subs...)
	}
	mClones.Inc()
	mCloneSeconds.Observe(time.Since(start).Seconds())
	return c
}

// Candidates returns the skyband candidate object indices.
func (x *Index) Candidates() []int { return x.candidates }

// IsCandidate reports whether object id is in the candidate skyband.
func (x *Index) IsCandidate(id int) bool { return x.candSet[id] }

// NumSubdomains returns the number of non-empty subdomains.
func (x *Index) NumSubdomains() int { return len(x.subs) }

// SubdomainOf returns the subdomain containing query j, or nil when the
// query is not in the index.
func (x *Index) SubdomainOf(j int) *Subdomain {
	if j < 0 || j >= len(x.queryToSub) || x.queryToSub[j] < 0 {
		return nil
	}
	return x.subs[x.queryToSub[j]]
}

// Representative returns the representative query index of subdomain s.
func (s *Subdomain) Representative() int { return s.rep }

// Tree exposes the query R-tree for slab searches.
func (x *Index) Tree() *rtree.Tree { return x.tree }

// IntersectionsProcessed reports how many Algorithm 1 splits ran.
func (x *Index) IntersectionsProcessed() int { return x.intersectionsProcessed }

// Stats summarises index footprint for the benchmark harness.
type Stats struct {
	Queries       int
	Subdomains    int
	Candidates    int
	TreeNodes     int
	SizeBytes     int
	Intersections int
}

// Stats computes the index's footprint. SizeBytes covers the R-tree, the
// subdomain tables, and the boundary structures.
func (x *Index) Stats() Stats {
	bytes := x.tree.SizeBytes()
	for _, s := range x.subs {
		bytes += 48 + 8*len(s.Queries) + 24*len(s.Boundaries)
	}
	bytes += 8 * len(x.queryToSub)
	bytes += x.boundaryFilter.SizeBytes()
	for _, subs := range x.boundaryIndex {
		bytes += 16 + 8*len(subs)
	}
	return Stats{
		Queries:       x.w.NumQueries(),
		Subdomains:    len(x.subs),
		Candidates:    len(x.candidates),
		TreeNodes:     x.tree.NodeCount(),
		SizeBytes:     bytes,
		Intersections: x.intersectionsProcessed,
	}
}

// CheckInvariant verifies the core soundness property: every pair of queries
// mapped to the same subdomain shares an identical candidate ranking.
// Intended for tests; cost O(queries × candidates log candidates).
func (x *Index) CheckInvariant() error {
	repSig := map[int]uint64{}
	for j := 0; j < x.w.NumQueries(); j++ {
		subID := x.queryToSub[j]
		if subID < 0 {
			continue
		}
		sig := x.rankingSignature(x.w.Query(j).Point)
		if prev, ok := repSig[subID]; ok {
			if prev != sig {
				return fmt.Errorf("subdomain %d groups queries with different rankings", subID)
			}
		} else {
			repSig[subID] = sig
		}
	}
	return nil
}
