package subdomain

import (
	"iq/internal/topk"
	"iq/internal/vec"
)

// DirtySet describes the cache impact of the mutations applied to an Index
// since the last TakeDirty: which queries may have a different hit threshold,
// which objects changed (coefficients, membership, or liveness), and whether
// the candidate skyband itself changed. Cache layers use it to invalidate
// only intersecting entries instead of treating the epoch bump as a wipe.
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
	all bool
	// queries maps a dirty query index to the object that made it dirty, or
	// -1 when several objects (or a query add/remove) did.
	queries map[int]int
	// objects holds every object whose coefficients, candidate membership,
	// or liveness changed; caches specific to one of them as target cannot
	// survive.
	objects map[int]struct{}
	// candidatesChanged records any change to the candidate skyband — a
	// member's coefficients, an arrival, or a departure.
	candidatesChanged bool
}

func newDirtySet() *DirtySet {
	return &DirtySet{queries: map[int]int{}, objects: map[int]struct{}{}}
}

// markQuery records query j as dirty, attributed to object source (-1 for
// structural changes). A second distinct source demotes the attribution.
func (d *DirtySet) markQuery(j, source int) {
	if d.all {
		return
	}
	if prev, ok := d.queries[j]; ok {
		if prev != source {
			d.queries[j] = -1
		}
		return
	}
	d.queries[j] = source
}

// markObject records that object id changed.
func (d *DirtySet) markObject(id int) {
	d.objects[id] = struct{}{}
}

// markCandidatesChanged records a change to the candidate skyband.
func (d *DirtySet) markCandidatesChanged() {
	d.candidatesChanged = true
}

// markAll degrades the set to "everything is dirty" — the conservative
// fallback equivalent to whole-epoch invalidation.
func (d *DirtySet) markAll() {
	d.all = true
	d.candidatesChanged = true
	d.queries = map[int]int{}
}

// merge folds o into d; the result is dirty wherever either input was. Sole
// sources survive only when both sides agree.
func (d *DirtySet) merge(o *DirtySet) {
	if o == nil {
		return
	}
	if o.all {
		d.markAll()
	}
	if !d.all {
		for j, src := range o.queries {
			d.markQuery(j, src)
		}
	}
	for id := range o.objects {
		d.objects[id] = struct{}{}
	}
	d.candidatesChanged = d.candidatesChanged || o.candidatesChanged
}

// All reports whether the set degraded to whole-epoch invalidation.
func (d *DirtySet) All() bool { return d == nil || d.all }

// Empty reports whether no cached state anywhere needs invalidation.
func (d *DirtySet) Empty() bool {
	return d != nil && !d.all && len(d.queries) == 0 && len(d.objects) == 0 && !d.candidatesChanged
}

// CandidatesChanged reports whether the candidate skyband (membership or a
// member's coefficients) changed.
func (d *DirtySet) CandidatesChanged() bool { return d == nil || d.all || d.candidatesChanged }

// QueryCount returns the number of individually dirty queries; meaningless
// when All is set.
func (d *DirtySet) QueryCount() int {
	if d == nil {
		return 0
	}
	return len(d.queries)
}

// QueryDirty reports whether query j's cached thresholds must be discarded
// for targets other than its sole source.
func (d *DirtySet) QueryDirty(j int) bool {
	if d == nil || d.all {
		return true
	}
	_, ok := d.queries[j]
	return ok
}

// QueryDirtyFor reports whether query j's cached threshold for the given
// target must be discarded: the query is dirty and the target is not its
// sole source (a target's threshold excludes the target itself, so a query
// dirtied only by that object keeps an exact threshold for it).
func (d *DirtySet) QueryDirtyFor(j, target int) bool {
	if d == nil || d.all {
		return true
	}
	src, ok := d.queries[j]
	return ok && src != target
}

// ObjectDirty reports whether object id changed.
func (d *DirtySet) ObjectDirty(id int) bool {
	if d == nil || d.all {
		return true
	}
	_, ok := d.objects[id]
	return ok
}

// ForEachQuery calls fn for every individually dirty query with its sole
// source object (-1 when attribution was lost). Not called when All is set —
// callers must check All first.
func (d *DirtySet) ForEachQuery(fn func(j, source int)) {
	if d == nil {
		return
	}
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
	if ds.all {
		mDirtySetSize.Observe(float64(x.w.NumQueries()))
	} else {
		mDirtySetSize.Observe(float64(len(ds.queries)))
	}
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
	if d.all {
		return
	}
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
