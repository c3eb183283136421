// Package subdomain implements the paper's query index over one workload
// snapshot: the k-skyband candidates — the only objects that can appear in
// any top-k result — with each member's exact dominator count, and one row
// per live query, the query's best K+1 band members (see rows.go). Every
// update (Section 4.3) keeps the skyband exact by adjusting the members'
// dominator counts and keeps each row exact by its band's leavers and
// entrants (see update.go). The solvers' Eq. 6 hit tables (internal/core)
// are derived from the rows.
//
// The paper's Algorithm 1 (Section 4.1), which partitions the query space
// into subdomains sharing one candidate ranking, is a separate value built
// on request from an index (see partition.go); no solve or commit reads it.
package subdomain

import (
	"context"
	"errors"
	"sync"
	"time"

	"iq/internal/obs"
	"iq/internal/topk"
)

// Options configures index construction.
type Options struct {
	// Slack widens the candidate skyband beyond MaxK (default 1, the
	// minimum that stays sound when a target object is degraded).
	Slack int
}

func (o Options) withDefaults() Options {
	if o.Slack <= 0 {
		o.Slack = 1
	}
	return o
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
	// remove, update). Consumers that cache derived state — the solvers' hit
	// tables, a partition and the ESE evaluator's ranks over it — tag it
	// with the epoch and rebuild when it moves.
	epoch uint64
	// memo holds what the layers above derive from this snapshot (see
	// Memo). Clones start with an empty one.
	memo sync.Map
}

// BuildCtx constructs the index over the workload: the candidate skyband
// and the rows. When ctx carries a trace, construction records an
// "index/build" span stamped with the resulting shape.
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

// mutated records a mutation by advancing the epoch.
func (x *Index) mutated() { x.epoch++ }

// Workload returns the underlying workload.
func (x *Index) Workload() *topk.Workload { return x.w }

// Memo returns the index's store for state that the layers above derive
// from this snapshot — the solvers key their hit tables by target here — so
// that the state lives exactly as long as the snapshot. CloneCtx never
// copies it. Entries do not follow in-place mutations: consumers check Epoch.
func (x *Index) Memo() *sync.Map { return &x.memo }

// Epoch returns the index's mutation counter. It changes whenever an
// object or query is added, removed, or updated, invalidating any state
// derived from the index.
func (x *Index) Epoch() uint64 { return x.epoch }

// CloneCtx returns an independent copy of the index bound to workload w,
// which must be a Clone of the index's current workload (the two
// structures are updated in lockstep, so they must be snapshotted
// together). The copy holds its own candidate skyband and dominator counts,
// shares the parent's rows until a mutation replaces them, and starts with
// an empty Memo. Mutating either index afterwards never affects the other.
// This is the write-path primitive for epoch-based snapshots: writers
// clone, mutate the clone, and publish it, while in-flight readers keep
// their immutable epoch. When ctx carries a trace, the copy records an
// "index/clone" span (the write path's fixed cost under the epoch snapshot
// scheme).
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
