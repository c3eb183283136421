// Package subdomain implements the paper's query index (Section 4.1,
// Algorithm 1): the intersections of object functions partition the query
// (weight) space into subdomains; all query points inside one subdomain
// share the same ranking of the functions, so at most one query per
// subdomain ever needs evaluating. Query points are grouped by subdomain and
// indexed in an R-tree for affected-subspace (slab) retrieval.
//
// Partitioning intersections are restricted to the workload's k-skyband
// candidates: only those objects can appear in any top-k result, so queries
// grouped by candidate-pair sign vectors share their top-k results exactly
// (see DESIGN.md, "Arrangement scale"). A final signature-refinement pass
// guarantees the grouping invariant even when the intersection budget is
// capped.
//
// The index keeps the skyband exact under every update (Section 4.3) by
// adjusting its members' dominator counts (see update.go), and with it one
// row per live query: the query's best K+1 band members (see rows.go).
// The partition — the query R-tree, the subdomains and the query→subdomain
// map — is derived state: the first read after a build or a mutation runs
// Algorithm 1 over the current state, and every mutation drops it.
package subdomain

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// grouping sound regardless; a cap trades grouping detail for indexing
	// speed.
	MaxIntersections int
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
	candidates []int // ascending
	// dominators[id] is object id's exact dominator count among the live
	// objects when id is a candidate and -1 when it is not. Every dominator
	// of a candidate is a candidate, which is what lets mutations keep the
	// counts exact by touching only candidates (see update.go).
	dominators []int32
	// rows[j] is live query j's row (see Row) and nil for a removed query.
	// Rows are never written in place: a mutation replaces the rows it
	// changes, so a clone shares the rest with its parent.
	rows [][]Entry
	// epoch increments on every mutating operation (object/query add,
	// remove, update). Consumers that cache derived state — the ESE
	// evaluator's per-subdomain ranks, the solvers' hit tables — tag their
	// caches with it and rebuild when it moves.
	epoch uint64
	// memo holds what the layers above derive from this snapshot (see
	// Memo). Clones start with an empty one.
	memo sync.Map
	// part is Algorithm 1's partition of the current state: nil until the
	// first read (see partition) and again after every mutation. partMu
	// makes concurrent first readers of a published snapshot build it once.
	part   atomic.Pointer[partition]
	partMu sync.Mutex
}

// partition is Algorithm 1's output over one index state.
type partition struct {
	tree       *rtree.Tree // the live queries
	subs       []*Subdomain
	queryToSub []int // query index -> subdomain ID (-1 for removed queries)
	// intersections counts Algorithm 1 split steps, reported by the
	// benchmark harness.
	intersections int
}

// Build constructs the index over the workload: the candidate skyband and
// the rows now, Algorithm 1's partition on its first read.
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
	idx := &Index{w: w, opts: opts}
	idx.rebuildBand()
	idx.buildRows()
	mBuilds.Inc()
	mBuildSeconds.Observe(time.Since(start).Seconds())
	sp.SetAttr("queries", w.NumQueries())
	sp.SetAttr("candidates", len(idx.candidates))
	return idx, nil
}

// rebuildBand computes the skyband and its members' dominator counts from
// scratch.
func (x *Index) rebuildBand() {
	cands, counts := x.w.Candidates(x.opts.Slack)
	dom := make([]int32, x.w.NumObjects())
	for i := range dom {
		dom[i] = -1
	}
	for i, c := range cands {
		dom[c] = int32(counts[i])
	}
	x.dominators = dom
	x.setCandidates(cands)
}

// setCandidates installs the ascending skyband the dominator counts
// describe and publishes its size.
func (x *Index) setCandidates(cands []int) {
	x.candidates = cands
	mCandidates.Set(int64(len(cands)))
}

// mutated records a mutation: it advances the epoch and drops the
// partition, which the next read rebuilds from the new state.
func (x *Index) mutated() {
	x.epoch++
	x.part.Store(nil)
}

// Partition builds Algorithm 1's partition of the current state, unless a
// read since the last mutation already did, and records an
// "index/partition" span when ctx carries a trace. Every partition reader —
// SubdomainOf, Tree, NumSubdomains, IntersectionsProcessed, Stats and
// CheckInvariant — builds it on first use; callers call Partition first to
// place that build in their trace or outside a timer.
func (x *Index) Partition(ctx context.Context) { x.partition(ctx) }

// partition returns the current partition, building it on first use.
func (x *Index) partition(ctx context.Context) *partition {
	if p := x.part.Load(); p != nil {
		return p
	}
	x.partMu.Lock()
	defer x.partMu.Unlock()
	if p := x.part.Load(); p != nil {
		return p
	}
	_, sp := obs.StartSpan(ctx, "index/partition")
	defer sp.End()
	p := x.algorithm1(true)
	sp.SetAttr("queries", p.tree.Len())
	sp.SetAttr("subdomains", len(p.subs))
	x.part.Store(p)
	return p
}

// algorithm1 partitions the live queries per Algorithm 1. refine adds the
// signature-refinement pass that guarantees the invariant "same subdomain ⇒
// same candidate ranking" even under an intersection cap or numerically
// degenerate planes; only tests turn it off, to check the unrefined
// grouping.
func (x *Index) algorithm1(refine bool) *partition {
	w := x.w
	p := &partition{queryToSub: make([]int, w.NumQueries())}
	var live []int
	var points []vec.Vector
	for j := range p.queryToSub {
		p.queryToSub[j] = -1
		if !w.IsQueryRemoved(j) {
			live = append(live, j)
			points = append(points, w.Query(j).Point)
		}
	}
	if len(live) == 0 {
		p.tree = rtree.New(w.Space().QueryDim(), x.opts.TreeFanout)
		return p
	}
	// STR bulk loading: faster than insertion and lower node overlap,
	// which tightens the evaluator's slab searches.
	p.tree = rtree.BulkLoad(points, live, x.opts.TreeFanout)

	groups, splits := x.partitionQueries(live)
	p.intersections = splits
	if refine {
		var refined []*group
		for _, g := range groups {
			refined = append(refined, x.refineBySignature(g)...)
		}
		groups = refined
	}
	for _, g := range groups {
		p.register(g)
	}
	return p
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

// partitionQueries groups the given (non-empty) queries by candidate-pair
// intersections, Algorithm 1's lines 1-26, and counts the split steps.
func (x *Index) partitionQueries(queries []int) (groups []*group, splits int) {
	// Line 1-5 of Algorithm 1: a single subdomain holding every query.
	groups = []*group{x.newGroup(queries, nil)}
	budget := x.opts.MaxIntersections
	// Lines 6-26: split groups one intersection at a time.
	for _, pair := range x.allCandidatePairs(queries) {
		if budget > 0 && splits >= budget {
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
		splits++
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
	return groups, splits
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

// register files a finished group as the next subdomain. Groups are never
// empty: Algorithm 1 only keeps a split whose sides both hold queries
// (lines 19-24 discard empty subdomains).
func (p *partition) register(g *group) {
	s := &Subdomain{ID: len(p.subs), Boundaries: g.boundaries, Queries: g.queries, rep: g.queries[0]}
	p.subs = append(p.subs, s)
	for _, q := range g.queries {
		p.queryToSub[q] = s.ID
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
func (x *Index) allCandidatePairs(queries []int) [][2]int {
	if len(x.candidates) < 2 {
		return nil
	}
	if a, b, ok := x.queryHullSegment(queries); ok {
		return x.sweepPairs(a, b)
	}
	lo := vec.Clone(x.w.Query(queries[0]).Point)
	hi := vec.Clone(lo)
	for _, j := range queries[1:] {
		p := x.w.Query(j).Point
		lo = vec.Min(lo, p)
		hi = vec.Max(hi, p)
	}
	return x.boxFilteredPairs(lo, hi)
}

// queryHullSegment reports whether the given (non-empty) queries' points lie
// (within tolerance) on one line segment — e.g. weight vectors normalised to sum 1 in two
// dimensions — returning the segment's endpoints. The line direction comes
// from the point farthest from an arbitrary anchor, not the bounding-box
// diagonal (which points the wrong way for anti-correlated lines).
func (x *Index) queryHullSegment(queries []int) (a, b vec.Vector, ok bool) {
	anchor := x.w.Query(queries[0]).Point
	far := anchor
	farDist := 0.0
	for _, j := range queries[1:] {
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
	for _, j := range queries {
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
// updated in lockstep, so they must be snapshotted together). The copy
// holds its own candidate skyband and dominator counts, shares the parent's
// rows until a mutation replaces them, and has no partition: it builds one
// on its first read. Mutating either index afterwards never affects the
// other. This is the write-path primitive for epoch-based
// snapshots: writers clone, mutate the clone, and publish it, while
// in-flight readers keep their immutable epoch.
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
		w:          w,
		opts:       x.opts,
		candidates: append([]int(nil), x.candidates...),
		dominators: append([]int32(nil), x.dominators...),
		rows:       append([][]Entry(nil), x.rows...),
		epoch:      x.epoch,
	}
	mClones.Inc()
	mCloneSeconds.Observe(time.Since(start).Seconds())
	return c
}

// Candidates returns the skyband candidate object indices.
func (x *Index) Candidates() []int { return x.candidates }

// IsCandidate reports whether object id is in the candidate skyband.
func (x *Index) IsCandidate(id int) bool {
	return id >= 0 && id < len(x.dominators) && x.dominators[id] >= 0
}

// NumSubdomains returns the number of non-empty subdomains.
func (x *Index) NumSubdomains() int { return len(x.partition(context.Background()).subs) }

// SubdomainOf returns the subdomain containing query j, or nil when the
// query is not in the index.
func (x *Index) SubdomainOf(j int) *Subdomain {
	p := x.partition(context.Background())
	if j < 0 || j >= len(p.queryToSub) || p.queryToSub[j] < 0 {
		return nil
	}
	return p.subs[p.queryToSub[j]]
}

// Representative returns the representative query index of subdomain s.
func (s *Subdomain) Representative() int { return s.rep }

// Tree exposes the query R-tree for slab searches.
func (x *Index) Tree() *rtree.Tree { return x.partition(context.Background()).tree }

// IntersectionsProcessed reports how many Algorithm 1 splits ran.
func (x *Index) IntersectionsProcessed() int {
	return x.partition(context.Background()).intersections
}

// Stats summarises index footprint for the benchmark harness.
type Stats struct {
	Queries       int
	Subdomains    int
	Candidates    int
	TreeNodes     int
	SizeBytes     int
	Intersections int
}

// Stats computes the index's footprint, partition included. SizeBytes
// covers the R-tree and the subdomain tables.
func (x *Index) Stats() Stats {
	p := x.partition(context.Background())
	bytes := p.tree.SizeBytes()
	for _, s := range p.subs {
		bytes += 48 + 8*len(s.Queries) + 24*len(s.Boundaries)
	}
	bytes += 8 * len(p.queryToSub)
	return Stats{
		Queries:       x.w.NumQueries(),
		Subdomains:    len(p.subs),
		Candidates:    len(x.candidates),
		TreeNodes:     p.tree.NodeCount(),
		SizeBytes:     bytes,
		Intersections: p.intersections,
	}
}

// CheckInvariant verifies the core soundness property: every pair of queries
// mapped to the same subdomain shares an identical candidate ranking.
// Intended for tests; cost O(queries × candidates log candidates).
func (x *Index) CheckInvariant() error {
	return x.checkInvariant(x.partition(context.Background()))
}

func (x *Index) checkInvariant(p *partition) error {
	repSig := map[int]uint64{}
	for j, subID := range p.queryToSub {
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
