package subdomain

import (
	"context"
	"fmt"
	"sort"

	"iq/internal/geom"
	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file implements the data-updating operations of Section 4.3. They
// keep the candidate skyband and the per-query rows current and advance the
// epoch. Every operation takes a context and records an "index/<op>" span
// when the context carries a trace. The object and query adds and the
// object mutations stamp rows_changed and rows_rescanned on their spans.
//
// Object mutations keep the skyband exact by dominance counting (see move)
// and each row exact by its band's leavers and entrants (see updateRows);
// only an added query that deepens the band recomputes both from scratch.

// AddQueryCtx inserts a new top-k query into the workload and the index.
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
	rows := 1
	if x.w.MaxK() > maxK {
		// A larger k widens the skyband, and the promotions may enter any row.
		x.rebuildBand()
		x.buildRows()
		rows = x.w.LiveQueries()
	} else {
		x.rows = append(x.rows, x.scanRow(j))
	}
	sp.SetAttr("rows_changed", rows)
	sp.SetAttr("rows_rescanned", rows)
	return j, nil
}

// RemoveQueryCtx removes query j from the index (the workload keeps the
// entry but the index stops considering it; callers normally use fresh
// indices per workload epoch). It returns an error when the query is
// unknown.
func (x *Index) RemoveQueryCtx(ctx context.Context, j int) error {
	_, sp := obs.StartSpan(ctx, "index/remove_query")
	defer sp.End()
	if j < 0 || j >= x.w.NumQueries() || x.w.IsQueryRemoved(j) {
		return fmt.Errorf("subdomain: query %d not indexed", j)
	}
	mRemoveQuery.Inc()
	x.mutated()
	x.w.RemoveQuery(j)
	x.rows[j] = nil
	return nil
}

// AddObjectCtx inserts a new object into the workload and updates the
// index: the object joins the candidate skyband unless enough candidates
// dominate it, and then the candidates it pushes to the band's depth leave.
func (x *Index) AddObjectCtx(ctx context.Context, attrs vec.Vector) (int, error) {
	_, sp := obs.StartSpan(ctx, "index/add_object")
	defer sp.End()
	id, err := x.w.AddObject(attrs)
	if err != nil {
		return 0, err
	}
	mAddObject.Inc()
	x.mutated()
	x.dominators = append(x.dominators, -1)
	oldBand := len(x.candidates)
	_, demoted := x.move(id, nil, x.w.Coeff(id))
	var entered []member
	if x.IsCandidate(id) {
		entered = x.members(id)
	}
	x.updateRows(sp, oldBand, x.members(demoted...), entered)
	return id, nil
}

// UpdateObjectCtx changes an object's attributes in place (same id) and
// updates the candidate skyband. Committing an improvement strategy to the
// dataset goes through here.
func (x *Index) UpdateObjectCtx(ctx context.Context, id int, attrs vec.Vector) error {
	_, sp := obs.StartSpan(ctx, "index/update_object")
	defer sp.End()
	if id < 0 || id >= x.w.NumObjects() || x.w.IsRemoved(id) {
		return fmt.Errorf("subdomain: object %d not updatable", id)
	}
	wasCandidate := x.IsCandidate(id)
	// The workload replaces the coefficient vector; the old one stays as it
	// was, and scores the object's old row entries.
	oldCoeff := x.w.Coeff(id)
	if err := x.w.UpdateObject(id, attrs); err != nil {
		return err
	}
	mUpdateObject.Inc()
	x.mutated()
	oldBand := len(x.candidates)
	promoted, demoted := x.move(id, oldCoeff, x.w.Coeff(id))
	left := x.members(demoted...)
	if wasCandidate {
		left = append(left, member{id, oldCoeff})
	}
	entered := x.members(promoted...)
	if x.IsCandidate(id) {
		entered = append(entered, member{id, x.w.Coeff(id)})
	}
	x.updateRows(sp, oldBand, left, entered)
	return nil
}

// RemoveObjectCtx tombstones an object and, when the object was a
// candidate, updates the candidate skyband.
func (x *Index) RemoveObjectCtx(ctx context.Context, id int) error {
	_, sp := obs.StartSpan(ctx, "index/remove_object")
	defer sp.End()
	if id < 0 || id >= x.w.NumObjects() {
		return fmt.Errorf("subdomain: object %d out of range", id)
	}
	if x.w.IsRemoved(id) {
		return fmt.Errorf("subdomain: object %d already removed", id)
	}
	wasCandidate := x.IsCandidate(id)
	x.w.RemoveObject(id)
	mRemoveObject.Inc()
	x.mutated()
	if !wasCandidate {
		// A non-candidate is in no row and dominates no candidate: neither
		// the skyband nor any row changes.
		sp.SetAttr("rows_changed", 0)
		sp.SetAttr("rows_rescanned", 0)
		return nil
	}
	// Removing a candidate can promote previously-pruned objects into the
	// skyband.
	oldBand := len(x.candidates)
	promoted, _ := x.move(id, x.w.Coeff(id), nil)
	x.updateRows(sp, oldBand, x.members(id), x.members(promoted...))
	return nil
}

// members pairs objects with their current coefficients.
func (x *Index) members(ids ...int) []member {
	ms := make([]member, len(ids))
	for i, id := range ids {
		ms[i] = member{id, x.w.Coeff(id)}
	}
	return ms
}

// move updates the skyband after object id moved from old to cur, given
// the candidates' exact dominator counts in the state before: old is nil
// for an added object (never a candidate before) and cur is nil for a
// removed one (already tombstoned in the workload). It returns the objects
// other than id that entered and left the band.
//
// Every other live object x gains a dominator when cur dominates it and
// loses one when old did, so x's count moves by at most one. A candidate's
// count is adjusted with those two tests and the candidate leaves when it
// reaches the band's depth k (Workload.SkybandDepth, the depth a rebuild
// uses). A non-candidate can only enter by losing old
// as a dominator, and only when id was a candidate: a non-candidate's
// dominators (k of them at least) also dominate everything it dominates.
// The entrants — those objects and id itself at cur — are recounted in
// SweepOrder against the remaining candidates and the entrants admitted so
// far. That count is exact: a point with fewer than k dominators has only
// candidates as dominators, and those precede it in the sweep; a point with
// k or more has k among the candidates, its first k dominators in the
// sweep. So the band equals a from-scratch k-skyband after every mutation.
func (x *Index) move(id int, old, cur vec.Vector) (promoted, demoted []int) {
	w := x.w
	k := w.SkybandDepth(x.opts.Slack)
	wasCandidate := x.dominators[id] >= 0
	x.dominators[id] = -1
	band := make([]int, 0, len(x.candidates)+1)
	for _, c := range x.candidates {
		if c == id {
			continue
		}
		n := x.dominators[c]
		if wasCandidate && vec.Dominates(old, w.Coeff(c)) {
			n--
		}
		if cur != nil && vec.Dominates(cur, w.Coeff(c)) {
			n++
		}
		if int(n) >= k {
			n = -1
			demoted = append(demoted, c)
		} else {
			band = append(band, c)
		}
		x.dominators[c] = n
	}

	var entrants []int
	if cur != nil {
		entrants = append(entrants, id)
	}
	if wasCandidate {
		for i := 0; i < w.NumObjects(); i++ {
			if x.dominators[i] < 0 && i != id && !w.IsRemoved(i) &&
				vec.Dominates(old, w.Coeff(i)) && (cur == nil || !vec.Dominates(cur, w.Coeff(i))) {
				entrants = append(entrants, i)
			}
		}
	}
	geom.SweepOrder(entrants, w.Coeff)
	for _, e := range entrants {
		p := w.Coeff(e)
		n := 0
		for _, c := range band {
			if vec.Dominates(w.Coeff(c), p) {
				if n++; n >= k {
					break
				}
			}
		}
		if n < k {
			x.dominators[e] = int32(n)
			band = append(band, e)
			if e != id {
				promoted = append(promoted, e)
			}
		}
	}
	sort.Ints(band)
	x.setCandidates(band)
	return promoted, demoted
}
