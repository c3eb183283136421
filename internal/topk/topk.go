package topk

import (
	"container/heap"
	"fmt"
	"sort"

	"iq/internal/geom"
	"iq/internal/vec"
)

// Query is a top-k query: a point in the function-domain space plus the
// number of results to return.
type Query struct {
	ID    int
	K     int
	Point vec.Vector
}

// Result is a materialised top-k answer: object indices ordered by ascending
// score (ties by index), with their scores. KthScore is the score of the
// last returned object — an improved target must beat it to enter the result
// (the paper's Equation 6).
type Result struct {
	Ordered  []int
	Scores   []float64
	KthScore float64
}

// Contains reports whether object id is in the result.
func (r Result) Contains(id int) bool {
	for _, o := range r.Ordered {
		if o == id {
			return true
		}
	}
	return false
}

// Workload bundles a dataset of objects, the embedding space, and a set of
// top-k queries — the complete input of an improvement query.
type Workload struct {
	space    Space
	attrs    []vec.Vector
	coeffs   []vec.Vector
	removed  []bool // tombstones keep object ids stable across removals
	queries  []Query
	removedQ []bool // query tombstones
	maxK     int
}

// NewWorkload embeds every object and validates the queries.
func NewWorkload(space Space, attrs []vec.Vector, queries []Query) (*Workload, error) {
	w := &Workload{space: space, attrs: make([]vec.Vector, len(attrs)),
		coeffs: make([]vec.Vector, len(attrs)), removed: make([]bool, len(attrs))}
	for i, a := range attrs {
		w.attrs[i] = vec.Clone(a)
		c, err := w.embed(a)
		if err != nil {
			return nil, fmt.Errorf("topk: object %d: %w", i, err)
		}
		w.coeffs[i] = c
	}
	w.queries = make([]Query, len(queries))
	w.removedQ = make([]bool, len(queries))
	for i, q := range queries {
		if err := w.CheckQuery(q); err != nil {
			return nil, fmt.Errorf("topk: query %d: %w", i, err)
		}
		if q.K > w.maxK {
			w.maxK = q.K
		}
		w.queries[i] = Query{ID: q.ID, K: q.K, Point: vec.Clone(q.Point)}
	}
	return w, nil
}

// Space returns the workload's embedding space.
func (w *Workload) Space() Space { return w.space }

// embed maps attrs into the space. Attributes and coefficients must both be
// finite: a NaN or Inf turns scores into NaN, and NaN compares false both
// ways, so rankings and hit counts would stop agreeing.
func (w *Workload) embed(attrs vec.Vector) (vec.Vector, error) {
	if !vec.AllFinite(attrs) {
		return nil, fmt.Errorf("topk: attributes %v are not finite", attrs)
	}
	c, err := w.space.Embed(attrs)
	if err != nil {
		return nil, err
	}
	if !vec.AllFinite(c) {
		return nil, fmt.Errorf("topk: attributes %v embed to non-finite coefficients %v", attrs, c)
	}
	return c, nil
}

// CheckQuery reports whether q can run against the workload: its point has
// the space's query dimension and finite coordinates, and k ≥ 1.
func (w *Workload) CheckQuery(q Query) error {
	if len(q.Point) != w.space.QueryDim() {
		return fmt.Errorf("topk: query dim %d, space wants %d", len(q.Point), w.space.QueryDim())
	}
	if q.K < 1 {
		return fmt.Errorf("topk: query k=%d", q.K)
	}
	if !vec.AllFinite(q.Point) {
		return fmt.Errorf("topk: query point %v is not finite", q.Point)
	}
	return nil
}

// Clone returns an independent copy of the workload for copy-on-write
// updates: all bookkeeping slices are copied so mutations of the clone never
// touch the original, while the element vectors (attributes, coefficients,
// query points) are shared — they are immutable by convention (UpdateObject
// replaces them, nothing writes into them) and the space itself is
// stateless after construction.
func (w *Workload) Clone() *Workload {
	c := &Workload{space: w.space, maxK: w.maxK}
	c.attrs = append([]vec.Vector(nil), w.attrs...)
	c.coeffs = append([]vec.Vector(nil), w.coeffs...)
	c.removed = append([]bool(nil), w.removed...)
	c.queries = append([]Query(nil), w.queries...)
	c.removedQ = append([]bool(nil), w.removedQ...)
	return c
}

// NumObjects returns the dataset size.
func (w *Workload) NumObjects() int { return len(w.attrs) }

// NumQueries returns the query-set size.
func (w *Workload) NumQueries() int { return len(w.queries) }

// MaxK returns the largest k among the queries (0 for an empty query set).
func (w *Workload) MaxK() int { return w.maxK }

// Attrs returns object i's raw attribute vector (not a copy; callers must
// not mutate — use UpdateObject).
func (w *Workload) Attrs(i int) vec.Vector { return w.attrs[i] }

// Coeff returns object i's embedded coefficient vector (not a copy).
func (w *Workload) Coeff(i int) vec.Vector { return w.coeffs[i] }

// Query returns query j.
func (w *Workload) Query(j int) Query { return w.queries[j] }

// Queries returns the backing query slice (read-only by convention).
func (w *Workload) Queries() []Query { return w.queries }

// UpdateObject replaces object i's attributes, re-embedding it.
func (w *Workload) UpdateObject(i int, attrs vec.Vector) error {
	c, err := w.embed(attrs)
	if err != nil {
		return err
	}
	w.attrs[i] = vec.Clone(attrs)
	w.coeffs[i] = c
	return nil
}

// AddObject appends an object and returns its index.
func (w *Workload) AddObject(attrs vec.Vector) (int, error) {
	c, err := w.embed(attrs)
	if err != nil {
		return 0, err
	}
	w.attrs = append(w.attrs, vec.Clone(attrs))
	w.coeffs = append(w.coeffs, c)
	w.removed = append(w.removed, false)
	return len(w.attrs) - 1, nil
}

// RemoveObject tombstones object i: it keeps its index but no longer
// participates in evaluation. Removing twice is a no-op.
func (w *Workload) RemoveObject(i int) {
	w.removed[i] = true
}

// IsRemoved reports whether object i has been tombstoned.
func (w *Workload) IsRemoved(i int) bool { return w.removed[i] }

// LiveObjects returns the number of non-removed objects.
func (w *Workload) LiveObjects() int {
	n := 0
	for _, r := range w.removed {
		if !r {
			n++
		}
	}
	return n
}

// AddQuery appends a query and returns its index.
func (w *Workload) AddQuery(q Query) (int, error) {
	if err := w.CheckQuery(q); err != nil {
		return 0, err
	}
	if q.K > w.maxK {
		w.maxK = q.K
	}
	w.queries = append(w.queries, Query{ID: q.ID, K: q.K, Point: vec.Clone(q.Point)})
	w.removedQ = append(w.removedQ, false)
	return len(w.queries) - 1, nil
}

// RemoveQuery tombstones query j: it keeps its index but stops counting in
// HitsExact/HitSet. The subdomain index mirrors this when removing queries.
func (w *Workload) RemoveQuery(j int) {
	w.removedQ[j] = true
}

// IsQueryRemoved reports whether query j has been tombstoned.
func (w *Workload) IsQueryRemoved(j int) bool { return w.removedQ[j] }

// LiveQueries returns the number of non-removed queries: the most an
// object can hit.
func (w *Workload) LiveQueries() int {
	n := 0
	for _, r := range w.removedQ {
		if !r {
			n++
		}
	}
	return n
}

// Score computes object i's ranking score at query point q (lower is
// better).
func (w *Workload) Score(i int, q vec.Vector) float64 {
	return vec.Dot(w.coeffs[i], q)
}

// Better reports whether the (score, id) pair a ranks strictly better than
// b. Ties on score break by smaller id, giving every query a strict total
// order as the subdomain theory requires.
func Better(scoreA float64, idA int, scoreB float64, idB int) bool {
	if scoreA != scoreB {
		return scoreA < scoreB
	}
	return idA < idB
}

// scoreHeap is a max-heap on (score, id) keeping the k best candidates.
type scoreHeap struct {
	ids    []int
	scores []float64
}

func (h *scoreHeap) Len() int { return len(h.ids) }
func (h *scoreHeap) Less(i, j int) bool {
	// Max-heap: worse elements bubble to the top.
	return Better(h.scores[j], h.ids[j], h.scores[i], h.ids[i])
}
func (h *scoreHeap) Swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.scores[i], h.scores[j] = h.scores[j], h.scores[i]
}
func (h *scoreHeap) Push(x interface{}) { panic("unused") }
func (h *scoreHeap) Pop() interface{}   { panic("unused") }

// Evaluate answers a top-k query by scanning all objects with a bounded
// max-heap: O(n log k).
func (w *Workload) Evaluate(q Query) Result {
	return w.EvaluateAmong(nil, q)
}

// EvaluateAmong answers a top-k query restricted to the candidate object
// indices (nil means all objects). The subdomain index uses this to evaluate
// representative queries over the k-skyband only.
func (w *Workload) EvaluateAmong(candidates []int, q Query) Result {
	n := len(w.coeffs)
	iter := func(yield func(i int)) {
		if candidates == nil {
			for i := 0; i < n; i++ {
				if !w.removed[i] {
					yield(i)
				}
			}
			return
		}
		for _, i := range candidates {
			if !w.removed[i] {
				yield(i)
			}
		}
	}
	h := &scoreHeap{}
	iter(func(i int) {
		s := vec.Dot(w.coeffs[i], q.Point)
		if len(h.ids) < q.K {
			h.ids = append(h.ids, i)
			h.scores = append(h.scores, s)
			if len(h.ids) == q.K {
				heap.Init(h)
			}
			return
		}
		// Replace the heap top (worst kept) when i is better.
		if Better(s, i, h.scores[0], h.ids[0]) {
			h.ids[0], h.scores[0] = i, s
			heap.Fix(h, 0)
		}
	})
	if len(h.ids) < q.K {
		heap.Init(h)
	}
	res := Result{Ordered: make([]int, len(h.ids)), Scores: make([]float64, len(h.ids))}
	copy(res.Ordered, h.ids)
	copy(res.Scores, h.scores)
	sort.Sort(&resultSorter{res})
	if len(res.Scores) > 0 {
		res.KthScore = res.Scores[len(res.Scores)-1]
	}
	return res
}

type resultSorter struct{ r Result }

func (s *resultSorter) Len() int { return len(s.r.Ordered) }
func (s *resultSorter) Less(i, j int) bool {
	return Better(s.r.Scores[i], s.r.Ordered[i], s.r.Scores[j], s.r.Ordered[j])
}
func (s *resultSorter) Swap(i, j int) {
	s.r.Ordered[i], s.r.Ordered[j] = s.r.Ordered[j], s.r.Ordered[i]
	s.r.Scores[i], s.r.Scores[j] = s.r.Scores[j], s.r.Scores[i]
}

// RankAmong returns the 1-based rank a hypothetical object with the given
// coefficient vector and identity id would have at query point q, counting
// only the candidate objects (nil = all). The object itself is excluded from
// the candidates by id.
func (w *Workload) RankAmong(candidates []int, coeff vec.Vector, id int, q vec.Vector) int {
	score := vec.Dot(coeff, q)
	rank := 1
	count := func(i int) {
		if i == id || w.removed[i] {
			return
		}
		if Better(vec.Dot(w.coeffs[i], q), i, score, id) {
			rank++
		}
	}
	if candidates == nil {
		for i := range w.coeffs {
			count(i)
		}
	} else {
		for _, i := range candidates {
			count(i)
		}
	}
	return rank
}

// HitsExact counts, by brute force over all objects and queries, how many
// queries a hypothetical object (raw attributes, standing in for object id)
// would hit. This is the ground truth H(p_i + s) that Efficient Strategy
// Evaluation must reproduce; baselines and tests use it directly.
func (w *Workload) HitsExact(attrs vec.Vector, id int) (int, error) {
	coeff, err := w.space.Embed(attrs)
	if err != nil {
		return 0, err
	}
	hits := 0
	for j, q := range w.queries {
		if w.removedQ[j] {
			continue
		}
		if w.RankAmong(nil, coeff, id, q.Point) <= q.K {
			hits++
		}
	}
	return hits, nil
}

// HitSet returns the indices of queries hit by the hypothetical object.
func (w *Workload) HitSet(attrs vec.Vector, id int) ([]int, error) {
	coeff, err := w.space.Embed(attrs)
	if err != nil {
		return nil, err
	}
	var out []int
	for j, q := range w.queries {
		if w.removedQ[j] {
			continue
		}
		if w.RankAmong(nil, coeff, id, q.Point) <= q.K {
			out = append(out, j)
		}
	}
	return out, nil
}

// Candidates returns the indices of objects in the (maxK+slack)-skyband of
// the embedded coefficient vectors. Only these objects can appear in any
// top-k result (k ≤ maxK) under non-negative query weights, so function
// intersections among them are the only ones the subdomain index needs.
// slack ≥ 1 keeps the set valid when one target object is removed or
// arbitrarily degraded (see DESIGN.md). dominators[i] is candidate ids[i]'s
// exact dominator count among the live objects.
func (w *Workload) Candidates(slack int) (ids, dominators []int) {
	k := w.SkybandDepth(slack)
	live := make([]vec.Vector, 0, len(w.coeffs))
	backMap := make([]int, 0, len(w.coeffs))
	for i, c := range w.coeffs {
		if !w.removed[i] {
			live = append(live, c)
			backMap = append(backMap, i)
		}
	}
	band, dominators := geom.KSkyband(live, k)
	for i, b := range band {
		band[i] = backMap[b]
	}
	return band, dominators
}

// SkybandDepth returns the k of the k-skyband Candidates(slack) keeps:
// maxK+slack (a negative slack counts as 0), at least 1. No object has as
// many dominators as there are objects, so every depth from the object
// count up keeps every live object; each term is capped there, which keeps
// the band and cannot overflow however large a query's K is.
func (w *Workload) SkybandDepth(slack int) int {
	n := len(w.coeffs)
	return max(1, min(w.maxK, n)+min(max(slack, 0), n))
}

// KthResult returns the object at rank k and its score for query j,
// evaluated among the given candidates (nil = all).
func (w *Workload) KthResult(candidates []int, j int) (objID int, score float64) {
	q := w.queries[j]
	res := w.EvaluateAmong(candidates, q)
	if len(res.Ordered) == 0 {
		return -1, 0
	}
	last := len(res.Ordered) - 1
	return res.Ordered[last], res.Scores[last]
}
