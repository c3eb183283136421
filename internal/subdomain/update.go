package subdomain

import (
	"context"
	"fmt"

	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file implements the data-updating operations of Section 4.3. They
// keep the candidate skyband and the dirty set current; the partition is
// dropped and rebuilt from the new state on its next read. Every operation
// has a Ctx variant recording an "index/<op>" span when the context carries
// a trace; the plain variants delegate with context.Background() so
// existing call sites keep working untraced.

// AddQuery inserts a new top-k query into the workload and the index.
func (x *Index) AddQuery(q topk.Query) (int, error) {
	return x.AddQueryCtx(context.Background(), q)
}

// AddQueryCtx is AddQuery with tracing.
func (x *Index) AddQueryCtx(ctx context.Context, q topk.Query) (int, error) {
	_, sp := obs.StartSpan(ctx, "index/add_query")
	defer sp.End()
	maxK := x.w.MaxK()
	j, err := x.w.AddQuery(q)
	if err != nil {
		return 0, err
	}
	mAddQuery.Inc()
	x.mutated()
	// A new query dirties exactly itself: thresholds of other queries are
	// untouched, but whole-workload aggregates (evaluator base hit sets)
	// must go.
	x.dirty().markQuery(j, -1)
	if x.w.MaxK() > maxK {
		// A larger k widens the skyband. Every other query's K+1 prefix lies
		// inside the old skyband, so the promotions rank below it and their
		// rows stay exact; the rank checks confirm it query by query.
		promoted, _ := x.recomputeCandidates()
		x.dirty().markCandidatesChanged()
		for _, p := range promoted {
			x.markRankDirty(x.candidates, p, x.w.Coeff(p), -1, nil)
		}
	}
	return j, nil
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
	if j < 0 || j >= x.w.NumQueries() || x.w.IsQueryRemoved(j) {
		return fmt.Errorf("subdomain: query %d not indexed", j)
	}
	mRemoveQuery.Inc()
	x.mutated()
	x.dirty().markQuery(j, -1)
	x.w.RemoveQuery(j)
	return nil
}

// AddObject inserts a new object into the workload and updates the index:
// the object joins the candidate skyband unless enough candidates dominate
// it.
func (x *Index) AddObject(attrs vec.Vector) (int, error) {
	return x.AddObjectCtx(context.Background(), attrs)
}

// AddObjectCtx is AddObject with tracing.
func (x *Index) AddObjectCtx(ctx context.Context, attrs vec.Vector) (int, error) {
	_, sp := obs.StartSpan(ctx, "index/add_object")
	defer sp.End()
	id, err := x.w.AddObject(attrs)
	if err != nil {
		return 0, err
	}
	mAddObject.Inc()
	x.mutated()
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
		// Cannot enter any top-k: no threshold or evaluator state can
		// change, so the dirty set stays empty and every cache survives the
		// epoch bump untouched.
		return id, nil
	}
	x.candidates = append(x.candidates, id)
	x.candSet[id] = true
	mCandidates.Set(int64(len(x.candidates)))
	x.dirty().markObject(id)
	x.dirty().markCandidatesChanged()
	x.markRankDirty(x.candidates, id, coeff, -1, nil)
	return id, nil
}

// UpdateObject changes an object's attributes in place (same id) and
// recomputes the candidate skyband. Committing an improvement strategy to
// the dataset goes through here.
func (x *Index) UpdateObject(id int, attrs vec.Vector) error {
	return x.UpdateObjectCtx(context.Background(), id, attrs)
}

// UpdateObjectCtx is UpdateObject with tracing.
func (x *Index) UpdateObjectCtx(ctx context.Context, id int, attrs vec.Vector) error {
	_, sp := obs.StartSpan(ctx, "index/update_object")
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
	x.mutated()
	x.dirty().markObject(id)
	promoted, demoted := x.recomputeCandidates()
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
		if p != id {
			x.markRankDirty(x.candidates, p, x.w.Coeff(p), -1, nil)
		}
	}
	for _, c := range demoted {
		if c != id {
			x.markRankDirty(oldCands, c, x.w.Coeff(c), id, oldCoeff)
		}
	}
	return nil
}

// RemoveObject tombstones an object and recomputes the candidate skyband
// when the object was a candidate.
func (x *Index) RemoveObject(id int) error {
	return x.RemoveObjectCtx(context.Background(), id)
}

// RemoveObjectCtx is RemoveObject with tracing.
func (x *Index) RemoveObjectCtx(ctx context.Context, id int) error {
	_, sp := obs.StartSpan(ctx, "index/remove_object")
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
	x.mutated()
	if !x.candSet[id] {
		// A non-candidate was in no top-k: thresholds for other targets
		// survive (the object itself is marked dirty above).
		return nil
	}
	// Removing a candidate can promote previously-pruned objects into the
	// skyband; arrival checks for them rank in the post-removal state.
	promoted, _ := x.recomputeCandidates()
	for _, p := range promoted {
		x.markRankDirty(x.candidates, p, x.w.Coeff(p), -1, nil)
	}
	return nil
}

// recomputeCandidates recomputes the skyband from the workload and returns
// the objects that entered and left it.
func (x *Index) recomputeCandidates() (promoted, demoted []int) {
	old := x.candSet
	x.setCandidates(x.w.Candidates(x.opts.Slack))
	for _, c := range x.candidates {
		if !old[c] {
			promoted = append(promoted, c)
		}
	}
	for c := range old {
		if !x.candSet[c] {
			demoted = append(demoted, c)
		}
	}
	return promoted, demoted
}
