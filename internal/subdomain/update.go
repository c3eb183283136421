package subdomain

import (
	"context"
	"fmt"

	"iq/internal/geom"
	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file implements the data-updating operations of Section 4.3. Every
// operation has a Ctx variant recording an "index/<op>" span (with
// "index/repartition" children where re-grouping runs) when the context
// carries a trace; the plain variants delegate with context.Background() so
// existing call sites keep working untraced.

// AddQuery inserts a new top-k query into the workload and the index. Per
// the paper's heuristic, the subdomains of the query point's nearest
// neighbours are tried first (verified against the boundary intersections
// and the ranking signature); only if none matches is a new subdomain
// created.
func (x *Index) AddQuery(q topk.Query) (int, error) {
	return x.AddQueryCtx(context.Background(), q)
}

// AddQueryCtx is AddQuery with tracing.
func (x *Index) AddQueryCtx(ctx context.Context, q topk.Query) (int, error) {
	_, sp := obs.StartSpan(ctx, "index/add_query")
	defer sp.End()
	j, err := x.w.AddQuery(q)
	if err != nil {
		return 0, err
	}
	mAddQuery.Inc()
	defer x.publishShape()
	x.epoch++
	// A new query dirties exactly itself: thresholds of other queries are
	// untouched, but whole-workload aggregates (evaluator base hit sets)
	// must go.
	x.dirty().markQuery(j, -1)
	point := x.w.Query(j).Point
	x.tree.Insert(point, j)
	x.queryToSub = append(x.queryToSub, -1)

	// Candidate subdomains from the k nearest neighbours.
	sig := x.rankingSignature(point)
	tried := map[int]bool{}
	for _, nb := range x.tree.NearestNeighbors(point, 6) {
		if nb.Entry.Key == j {
			continue
		}
		subID := x.queryToSub[nb.Entry.Key]
		if subID < 0 || tried[subID] {
			continue
		}
		tried[subID] = true
		s := x.subs[subID]
		// Fast path: boundary-side check, as Algorithm 1 would classify.
		if !x.matchesBoundaries(s, point) {
			continue
		}
		// Sound path: the ranking signature must match the subdomain's.
		if x.rankingSignature(x.w.Query(s.rep).Point) == sig {
			s.Queries = append(s.Queries, j)
			x.queryToSub[j] = subID
			return j, nil
		}
	}
	// No candidate matched: the query starts its own subdomain.
	g := x.newGroup([]int{j}, nil)
	x.registerSubdomain(g)
	return j, nil
}

// matchesBoundaries checks the query point against every recorded boundary
// intersection of the subdomain (the paper's above/below verification).
func (x *Index) matchesBoundaries(s *Subdomain, point vec.Vector) bool {
	for _, b := range s.Boundaries {
		plane := intersectionOf(x.w, b.A, b.B)
		if plane.SideOf(point) != b.Side {
			return false
		}
	}
	return true
}

// RemoveQuery removes query j from the index (the workload keeps the entry
// but the index stops considering it; callers normally use fresh indices per
// workload epoch). It returns an error when the query is unknown.
func (x *Index) RemoveQuery(j int) error {
	return x.RemoveQueryCtx(context.Background(), j)
}

// RemoveQueryCtx is RemoveQuery with tracing.
func (x *Index) RemoveQueryCtx(ctx context.Context, j int) error {
	_, sp := obs.StartSpan(ctx, "index/remove_query")
	defer sp.End()
	// Liveness is tracked by removedQ, not queryToSub: during a batch an
	// earlier operation may have dissolved this query's subdomain, leaving a
	// live query transiently orphaned (queryToSub < 0) until EndBatch
	// repartitions. Removing such a query must still succeed.
	if j < 0 || j >= len(x.queryToSub) || x.removedQ[j] {
		return fmt.Errorf("subdomain: query %d not indexed", j)
	}
	point := x.w.Query(j).Point
	if !x.tree.Delete(point, j) {
		return fmt.Errorf("subdomain: query %d missing from R-tree", j)
	}
	mRemoveQuery.Inc()
	defer x.publishShape()
	x.epoch++
	x.dirty().markQuery(j, -1)
	if subID := x.queryToSub[j]; subID >= 0 {
		s := x.subs[subID]
		for i, q := range s.Queries {
			if q == j {
				s.Queries = append(s.Queries[:i], s.Queries[i+1:]...)
				break
			}
		}
		if len(s.Queries) == 0 {
			delete(x.subs, subID)
			x.dropBoundaryLinks(s)
		} else if s.rep == j {
			s.rep = s.Queries[0]
		}
	}
	x.queryToSub[j] = -1
	x.removedQ[j] = true
	x.w.RemoveQuery(j)
	return nil
}

func (x *Index) dropBoundaryLinks(s *Subdomain) {
	for _, b := range s.Boundaries {
		key := pairKey(b.A, b.B)
		ids := x.boundaryIndex[key]
		for i, id := range ids {
			if id == s.ID {
				x.boundaryIndex[key] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(x.boundaryIndex[key]) == 0 {
			delete(x.boundaryIndex, key)
		}
	}
}

// AddObject inserts a new object into the workload and updates the index:
// when the object enters the candidate skyband, the newly created
// intersections (new object × existing candidates) re-partition the affected
// subdomains, exactly as Section 4.3 describes.
func (x *Index) AddObject(attrs vec.Vector) (int, error) {
	return x.AddObjectCtx(context.Background(), attrs)
}

// AddObjectCtx is AddObject with tracing.
func (x *Index) AddObjectCtx(ctx context.Context, attrs vec.Vector) (int, error) {
	ctx, sp := obs.StartSpan(ctx, "index/add_object")
	defer sp.End()
	id, err := x.w.AddObject(attrs)
	if err != nil {
		return 0, err
	}
	mAddObject.Inc()
	defer x.publishShape()
	x.epoch++
	// Does the new object join the candidate set? Conservative test: count
	// skyband-style dominators among current candidates.
	kLimit := x.w.MaxK() + x.opts.Slack
	dominators := 0
	coeff := x.w.Coeff(id)
	for _, c := range x.candidates {
		if vec.Dominates(x.w.Coeff(c), coeff) {
			dominators++
			if dominators >= kLimit {
				break
			}
		}
	}
	if dominators >= kLimit {
		// Cannot enter any top-k: no subdomain, threshold, or evaluator
		// state can change, so the dirty set stays empty and every cache
		// survives the epoch bump untouched.
		return id, nil
	}
	x.candidates = append(x.candidates, id)
	x.candSet[id] = true
	x.dirty().markObject(id)
	x.dirty().markCandidatesChanged()
	x.markRankDirty(x.candidates, id, coeff, -1, nil)
	// New intersections involve only the new object.
	pairs := make([][2]int, 0, len(x.candidates)-1)
	for _, c := range x.candidates {
		if c != id {
			pairs = append(pairs, [2]int{c, id})
		}
	}
	x.repartition(ctx, x.allIndexedQueries(), pairs)
	return id, nil
}

// UpdateObject changes an object's attributes in place (same id), updating
// the candidate set and re-grouping every subdomain the object's old or new
// intersections can affect. Committing an improvement strategy to the
// dataset goes through here.
func (x *Index) UpdateObject(id int, attrs vec.Vector) error {
	return x.UpdateObjectCtx(context.Background(), id, attrs)
}

// UpdateObjectCtx is UpdateObject with tracing.
func (x *Index) UpdateObjectCtx(ctx context.Context, id int, attrs vec.Vector) error {
	ctx, sp := obs.StartSpan(ctx, "index/update_object")
	defer sp.End()
	if id < 0 || id >= x.w.NumObjects() || x.w.IsRemoved(id) {
		return fmt.Errorf("subdomain: object %d not updatable", id)
	}
	wasCandidate := x.candSet[id]
	// Snapshot pre-mutation state for the dirty computation: departures are
	// judged against the old candidate list with the old coefficients.
	oldCands := x.candidates
	oldCoeff := vec.Clone(x.w.Coeff(id))
	if wasCandidate {
		// Old-state check for the updated candidate itself, while the
		// workload still scores it with the old coefficients.
		x.markRankDirty(oldCands, id, oldCoeff, -1, nil)
	}
	if err := x.w.UpdateObject(id, attrs); err != nil {
		return err
	}
	mUpdateObject.Inc()
	defer x.publishShape()
	x.epoch++
	x.dirty().markObject(id)
	// Recompute the candidate set; remember promotions and demotions.
	oldSet := x.candSet
	x.candidates = x.w.Candidates(x.opts.Slack)
	x.candSet = make(map[int]bool, len(x.candidates))
	var promoted []int
	for _, c := range x.candidates {
		x.candSet[c] = true
		if !oldSet[c] && c != id {
			promoted = append(promoted, c)
		}
	}
	var demoted []int
	for c := range oldSet {
		if !x.candSet[c] && c != id {
			demoted = append(demoted, c)
		}
	}
	if wasCandidate || x.candSet[id] || len(promoted) > 0 || len(demoted) > 0 {
		x.dirty().markCandidatesChanged()
	}
	// New-state checks: the updated object with its new coefficients and
	// every promotion, ranked among the current candidates. Demotions rank
	// among the old candidates — their own coefficients are unchanged, but
	// the updated object's must be overridden back to its old value.
	if x.candSet[id] {
		x.markRankDirty(x.candidates, id, x.w.Coeff(id), -1, nil)
	}
	for _, p := range promoted {
		x.markRankDirty(x.candidates, p, x.w.Coeff(p), -1, nil)
	}
	for _, c := range demoted {
		x.markRankDirty(oldCands, c, x.w.Coeff(c), id, oldCoeff)
	}
	// Subdomains bounded by the object's old intersections must regroup.
	var queries []int
	if wasCandidate {
		affected := map[int]bool{}
		for key, subIDs := range x.boundaryIndex {
			if key[0] == id || key[1] == id {
				if x.boundaryFilter.ContainsPair(key[0], key[1]) {
					for _, subID := range subIDs {
						affected[subID] = true
					}
				}
			}
		}
		for subID := range affected {
			s, ok := x.subs[subID]
			if !ok {
				continue
			}
			queries = append(queries, s.Queries...)
			delete(x.subs, subID)
			x.dropBoundaryLinks(s)
		}
	}
	if len(queries) > 0 {
		x.repartition(ctx, queries, nil)
	}
	// The object's new intersections (and any promotions) partition like a
	// fresh object insertion.
	var fresh []int
	if x.candSet[id] {
		fresh = append(fresh, id)
	}
	fresh = append(fresh, promoted...)
	if len(fresh) > 0 {
		var pairs [][2]int
		for _, f := range fresh {
			for _, c := range x.candidates {
				if c != f {
					pairs = append(pairs, pairKey(c, f))
				}
			}
		}
		x.repartition(ctx, x.allIndexedQueries(), pairs)
	}
	return nil
}

// RemoveObject tombstones an object. All subdomains bounded by an
// intersection involving the object — found through the Bloom filter and the
// boundary index, per Section 4.3 — are merged by re-grouping their queries
// under the updated candidate set.
func (x *Index) RemoveObject(id int) error {
	return x.RemoveObjectCtx(context.Background(), id)
}

// RemoveObjectCtx is RemoveObject with tracing.
func (x *Index) RemoveObjectCtx(ctx context.Context, id int) error {
	ctx, sp := obs.StartSpan(ctx, "index/remove_object")
	defer sp.End()
	if id < 0 || id >= x.w.NumObjects() {
		return fmt.Errorf("subdomain: object %d out of range", id)
	}
	if x.w.IsRemoved(id) {
		return fmt.Errorf("subdomain: object %d already removed", id)
	}
	x.dirty().markObject(id)
	if x.candSet[id] {
		// Departure check against the pre-removal state, while the object
		// still scores among the candidates.
		x.markRankDirty(x.candidates, id, x.w.Coeff(id), -1, nil)
		x.dirty().markCandidatesChanged()
	}
	x.w.RemoveObject(id)
	mRemoveObject.Inc()
	defer x.publishShape()
	x.epoch++
	if !x.candSet[id] {
		// A non-candidate was in no top-k: thresholds for other targets
		// survive (the object itself is marked dirty above).
		return nil
	}
	delete(x.candSet, id)
	for i, c := range x.candidates {
		if c == id {
			x.candidates = append(x.candidates[:i], x.candidates[i+1:]...)
			break
		}
	}
	// Removing a candidate can promote previously-pruned objects into the
	// skyband; recompute the candidate set (cheap relative to a rebuild)
	// and remember the promotions — their intersections never partitioned
	// anything yet.
	oldSet := x.candSet
	x.candidates = x.w.Candidates(x.opts.Slack)
	x.candSet = make(map[int]bool, len(x.candidates))
	var promoted []int
	for _, c := range x.candidates {
		x.candSet[c] = true
		if !oldSet[c] {
			promoted = append(promoted, c)
		}
	}
	// Arrival checks for the promotions, ranked in the post-removal state.
	for _, p := range promoted {
		x.markRankDirty(x.candidates, p, x.w.Coeff(p), -1, nil)
	}

	// Locate affected subdomains: Bloom filter first, boundary index for
	// the exact hit set.
	affected := map[int]bool{}
	for _, c := range x.candidates {
		key := pairKey(c, id)
		if !x.boundaryFilter.ContainsPair(key[0], key[1]) {
			continue // definite miss
		}
		for _, subID := range x.boundaryIndex[key] {
			affected[subID] = true
		}
	}
	// Also any subdomain whose boundary references id with a non-candidate
	// partner (candidate set may have changed since the boundary formed).
	for key, subIDs := range x.boundaryIndex {
		if key[0] == id || key[1] == id {
			for _, subID := range subIDs {
				affected[subID] = true
			}
		}
	}
	var queries []int
	for subID := range affected {
		s, ok := x.subs[subID]
		if !ok {
			continue
		}
		queries = append(queries, s.Queries...)
		delete(x.subs, subID)
		x.dropBoundaryLinks(s)
	}
	if len(queries) > 0 {
		x.repartition(ctx, queries, nil)
	}
	// Promoted candidates behave like newly added objects: split all
	// subdomains on their intersections with the other candidates.
	if len(promoted) > 0 {
		var pairs [][2]int
		for _, p := range promoted {
			for _, c := range x.candidates {
				if c != p {
					pairs = append(pairs, pairKey(c, p))
				}
			}
		}
		x.repartition(ctx, x.allIndexedQueries(), pairs)
	}
	return nil
}

// allIndexedQueries lists queries currently mapped to a subdomain.
func (x *Index) allIndexedQueries() []int {
	var out []int
	for j, subID := range x.queryToSub {
		if subID >= 0 {
			out = append(out, j)
		}
	}
	return out
}

// repartition removes the given queries from their subdomains and re-runs
// the partitioning over them (restricted to pairs when non-nil). In batch
// mode the dissolve still happens eagerly — later operations in the batch
// rely on consistent boundary tables and query mappings — but the
// partitioning of the orphans is deferred to EndBatch with the union of the
// pair restrictions.
func (x *Index) repartition(ctx context.Context, queries []int, pairs [][2]int) {
	x.dissolve(queries)
	if x.batching {
		x.batchDeferred = true
		if pairs == nil {
			x.batchAllPairs = true
		} else if !x.batchAllPairs {
			for _, p := range pairs {
				key := pairKey(p[0], p[1])
				if !x.batchPairSeen[key] {
					x.batchPairSeen[key] = true
					x.batchPairs = append(x.batchPairs, key)
				}
			}
		}
		return
	}
	x.partitionOrphans(ctx, pairs, len(queries))
}

// dissolve removes the given queries' subdomains (and their siblings — the
// group structure stays consistent only in whole subdomains).
func (x *Index) dissolve(queries []int) {
	for _, j := range queries {
		subID := x.queryToSub[j]
		if subID < 0 {
			continue
		}
		if s, ok := x.subs[subID]; ok {
			delete(x.subs, subID)
			x.dropBoundaryLinks(s)
			for _, sib := range s.Queries {
				x.queryToSub[sib] = -1
			}
		}
		x.queryToSub[j] = -1
	}
}

// partitionOrphans re-groups every currently orphaned query.
func (x *Index) partitionOrphans(ctx context.Context, pairs [][2]int, dissolved int) {
	_, sp := obs.StartSpan(ctx, "index/repartition")
	sp.SetAttr("queries", dissolved)
	sp.SetAttr("pairs", len(pairs))
	defer sp.End()
	mRepartitions.Inc()
	// Collect every now-orphaned query (dedup), excluding queries the user
	// removed — they must never be resurrected into a subdomain.
	var all []int
	for j, subID := range x.queryToSub {
		if subID < 0 && !x.removedQ[j] {
			all = append(all, j)
		}
	}
	// Updates always refine: a pair-restricted split alone cannot
	// guarantee the grouping invariant.
	x.partitionQueries(all, pairs, true)
}

// BeginBatch puts the index into batch-mutation mode: subsequent operations
// dissolve affected subdomains eagerly but defer the partitioning of the
// orphaned queries until EndBatch, which runs it once over the union — N
// mutations cost one repartition instead of up to 2N. Between BeginBatch and
// EndBatch the index answers membership queries consistently, but orphaned
// queries have no subdomain (SubdomainOf returns nil), so evaluation must
// wait for EndBatch. Not safe for concurrent use; the copy-on-write System
// only batches on private clones.
func (x *Index) BeginBatch() {
	x.batching = true
	x.batchDeferred = false
	x.batchAllPairs = false
	x.batchPairs = nil
	x.batchPairSeen = map[[2]int]bool{}
}

// EndBatch leaves batch mode, running the single deferred partitioning pass
// over every orphaned query. The signature-refinement pass guarantees the
// grouping invariant no matter how the batch's pair restrictions merged.
func (x *Index) EndBatch() {
	x.EndBatchCtx(context.Background())
}

// EndBatchCtx is EndBatch with tracing.
func (x *Index) EndBatchCtx(ctx context.Context) {
	if !x.batching {
		return
	}
	x.batching = false
	pairs := x.batchPairs
	if x.batchAllPairs {
		pairs = nil
	}
	deferred := x.batchDeferred
	x.batchDeferred = false
	x.batchAllPairs = false
	x.batchPairs = nil
	x.batchPairSeen = nil
	if !deferred {
		return
	}
	mBatchedRepartitions.Inc()
	x.partitionOrphans(ctx, pairs, 0)
	x.publishShape()
}

// intersectionOf rebuilds the intersection hyperplane for an object pair.
func intersectionOf(w *topk.Workload, a, b int) geom.Hyperplane {
	return geom.IntersectionPlane(w.Coeff(a), w.Coeff(b))
}
