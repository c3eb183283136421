package subdomain

import (
	"iq/internal/topk"
	"iq/internal/vec"
)

// DirtySet describes the cache impact of the mutations applied to an Index
// since the last TakeDirty: which queries may have a different hit
// threshold. Cache layers use it to invalidate only intersecting entries
// instead of treating the epoch bump as a wipe.
//
// Soundness contract (the K+1 prefix argument): a query j is marked dirty
// whenever some object whose coefficients or candidate membership changed
// ranks within q_j.K+1 among the full candidate set, measured in the
// pre-mutation state (for old coefficients / departures) or the
// post-mutation state (for new coefficients / arrivals). If every changed
// object ranks strictly below that prefix on both sides, the top-(K+1)
// candidates at j — and therefore the K-th best score among candidates
// excluding any single target — are bit-identical before and after the
// mutation, so a clean query's cached thresholds remain exact for every
// target. Query additions and removals always dirty the affected query.
//
// Per dirty query the set also remembers a sole source: when exactly one
// changed object forced the query dirty, a threshold entry for that same
// object as target is still exact (the threshold excludes the target from
// its own competition), and the migration layer retains it. This is what
// keeps the paper's improve/re-query loop warm across its own commits.
type DirtySet struct {
	// queries maps a dirty query index to the object that made it dirty, or
	// -1 when several objects (or a query add/remove) did.
	queries map[int]int
}

func newDirtySet() *DirtySet {
	return &DirtySet{queries: map[int]int{}}
}

// markQuery records query j as dirty, attributed to object source (-1 for
// structural changes). A second distinct source demotes the attribution.
func (d *DirtySet) markQuery(j, source int) {
	if prev, ok := d.queries[j]; ok {
		if prev != source {
			d.queries[j] = -1
		}
		return
	}
	d.queries[j] = source
}

// QueryCount returns the number of dirty queries.
func (d *DirtySet) QueryCount() int { return len(d.queries) }

// QueryDirtyFor reports whether query j's cached threshold for the given
// target must be discarded: the query is dirty and the target is not its
// sole source (a target's threshold excludes the target itself, so a query
// dirtied only by that object keeps an exact threshold for it).
func (d *DirtySet) QueryDirtyFor(j, target int) bool {
	src, ok := d.queries[j]
	return ok && src != target
}

// ForEachQuery calls fn for every dirty query with its sole source object
// (-1 when attribution was lost).
func (d *DirtySet) ForEachQuery(fn func(j, source int)) {
	for j, src := range d.queries {
		fn(j, src)
	}
}

// dirty returns the index's pending dirty set, allocating it on first use.
// Every mutating operation accumulates into it; TakeDirty hands it to the
// caller and resets the accumulator.
func (x *Index) dirty() *DirtySet {
	if x.pending == nil {
		x.pending = newDirtySet()
	}
	return x.pending
}

// TakeDirty returns the dirty set accumulated by every mutation since the
// previous TakeDirty (or since construction/clone) and resets the
// accumulator. The copy-on-write System calls it once per publish, after the
// mutation succeeded, and feeds the result to the cache-migration layer; a
// failed or cancelled mutation discards its clone — and the clone's dirty
// set with it — so a partial set is never observed.
func (x *Index) TakeDirty() *DirtySet {
	ds := x.dirty()
	x.pending = nil
	mDirtySetSize.Observe(float64(len(ds.queries)))
	return ds
}

// markRankDirty marks every query where the given object — scored with
// coeff — ranks within the query's K+1 among cands, attributing the dirt to
// that object. This is the K+1 prefix criterion: queries where the object
// ranks below the prefix keep bit-identical thresholds. overrideID (or -1)
// substitutes one competitor's coefficients, which lets departure checks run
// against the pre-mutation state after the workload already changed.
func (x *Index) markRankDirty(cands []int, objID int, coeff vec.Vector, overrideID int, overrideCoeff vec.Vector) {
	d := x.dirty()
	w := x.w
	for j := 0; j < w.NumQueries(); j++ {
		if w.IsQueryRemoved(j) {
			continue
		}
		q := w.Query(j)
		score := vec.Dot(coeff, q.Point)
		rank := 1
		for _, c := range cands {
			if c == objID {
				continue
			}
			cc := w.Coeff(c)
			if c == overrideID {
				cc = overrideCoeff
			}
			if topk.Better(vec.Dot(cc, q.Point), c, score, objID) {
				rank++
				if rank > q.K+1 {
					break
				}
			}
		}
		if rank <= q.K+1 {
			d.markQuery(j, objID)
		}
	}
}
