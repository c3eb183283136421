package subdomain

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"iq/internal/geom"
	"iq/internal/obs"
	"iq/internal/rtree"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file holds the paper's Algorithm 1 (Section 4.1): the intersections
// of the candidate objects' functions partition the query (weight) space
// into subdomains, and all query points inside one subdomain share the same
// ranking of the candidates, so at most one query per subdomain ever needs
// evaluating. The live query points are also indexed in an R-tree for the
// affected-subspace (slab) retrieval of Algorithm 2 (internal/ese).
//
// Partitioning intersections are restricted to the index's k-skyband
// candidates: only those objects can appear in any top-k result, so queries
// grouped by candidate-pair sign vectors share their top-k results exactly
// (see DESIGN.md, "Arrangement scale"). A final signature-refinement pass
// guarantees the grouping invariant even when the intersection budget is
// capped.
//
// No solve or commit reads a partition: it is a value built on request from
// one index state, for the figure runner, the ESE evaluator and Index.Stats.

// PartitionOptions configures Algorithm 1.
type PartitionOptions struct {
	// TreeFanout is the query R-tree's max entries per node (default 16).
	TreeFanout int
	// MaxIntersections caps how many candidate-pair intersections
	// Algorithm 1 processes (0 = all). The signature refinement keeps the
	// grouping sound regardless; a cap trades grouping detail for indexing
	// speed.
	MaxIntersections int
}

func (o PartitionOptions) withDefaults() PartitionOptions {
	if o.TreeFanout <= 0 {
		o.TreeFanout = rtree.DefaultMaxEntries
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

// Representative returns the representative query index of subdomain s.
func (s *Subdomain) Representative() int { return s.rep }

// Partition is Algorithm 1's output over one index state: the live queries'
// R-tree, the subdomains and the query → subdomain map. It describes the
// state it was built from and never changes; after a mutation of the index,
// build a new one.
type Partition struct {
	idx        *Index
	opts       PartitionOptions
	epoch      uint64
	tree       *rtree.Tree
	subs       []*Subdomain
	queryToSub []int // query index -> subdomain ID (-1 for removed queries)
	// intersections counts Algorithm 1 split steps, reported by the
	// benchmark harness.
	intersections int
}

// NewPartition runs Algorithm 1 over the index's current state and records
// an "index/partition" span when ctx carries a trace. It only reads the
// index, so readers of a published snapshot may build partitions of it
// concurrently.
func NewPartition(ctx context.Context, x *Index, opts PartitionOptions) *Partition {
	_, sp := obs.StartSpan(ctx, "index/partition")
	defer sp.End()
	p := x.algorithm1(opts, true)
	sp.SetAttr("queries", p.tree.Len())
	sp.SetAttr("subdomains", len(p.subs))
	return p
}

// Index returns the index the partition was built from.
func (p *Partition) Index() *Index { return p.idx }

// Options returns the options the partition was built with, defaults filled
// in.
func (p *Partition) Options() PartitionOptions { return p.opts }

// Epoch returns the index epoch the partition describes.
func (p *Partition) Epoch() uint64 { return p.epoch }

// NumSubdomains returns the number of non-empty subdomains.
func (p *Partition) NumSubdomains() int { return len(p.subs) }

// Intersections reports how many Algorithm 1 splits ran.
func (p *Partition) Intersections() int { return p.intersections }

// SubdomainOf returns the subdomain containing query j, or nil when the
// query is not in the partition.
func (p *Partition) SubdomainOf(j int) *Subdomain {
	if j < 0 || j >= len(p.queryToSub) || p.queryToSub[j] < 0 {
		return nil
	}
	return p.subs[p.queryToSub[j]]
}

// Tree exposes the query R-tree for slab searches.
func (p *Partition) Tree() *rtree.Tree { return p.tree }

// CheckInvariant verifies the core soundness property: every pair of queries
// mapped to the same subdomain shares an identical candidate ranking. It
// fails for a partition of an earlier epoch than its index's. Intended for
// tests; cost O(queries × candidates log candidates).
func (p *Partition) CheckInvariant() error {
	x := p.idx
	if p.epoch != x.epoch {
		return fmt.Errorf("partition of epoch %d checked against index epoch %d", p.epoch, x.epoch)
	}
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

// Stats summarises index footprint for the benchmark harness.
type Stats struct {
	Queries       int
	Subdomains    int
	Candidates    int
	TreeNodes     int
	SizeBytes     int
	Intersections int
}

// Stats runs Algorithm 1 with the default options on every call and reports
// the index's footprint, partition included. SizeBytes covers the R-tree and
// the subdomain tables.
func (x *Index) Stats() Stats {
	p := NewPartition(context.Background(), x, PartitionOptions{})
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

// algorithm1 partitions the live queries per Algorithm 1. refine adds the
// signature-refinement pass that guarantees the invariant "same subdomain ⇒
// same candidate ranking" even under an intersection cap or numerically
// degenerate planes; only tests turn it off, to check the unrefined
// grouping.
func (x *Index) algorithm1(opts PartitionOptions, refine bool) *Partition {
	w := x.w
	opts = opts.withDefaults()
	p := &Partition{idx: x, opts: opts, epoch: x.epoch, queryToSub: make([]int, w.NumQueries())}
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
		p.tree = rtree.New(w.Space().QueryDim(), opts.TreeFanout)
		return p
	}
	// STR bulk loading: faster than insertion and lower node overlap,
	// which tightens the evaluator's slab searches.
	p.tree = rtree.BulkLoad(points, live, opts.TreeFanout)

	groups, splits := x.partitionQueries(live, opts.MaxIntersections)
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
// intersections, Algorithm 1's lines 1-26, and counts the split steps, at
// most budget of them (0 = no cap).
func (x *Index) partitionQueries(queries []int, budget int) (groups []*group, splits int) {
	// Line 1-5 of Algorithm 1: a single subdomain holding every query.
	groups = []*group{x.newGroup(queries, nil)}
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
func (p *Partition) register(g *group) {
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
