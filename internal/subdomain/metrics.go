package subdomain

import "iq/internal/obs"

// Index-side observability: build/clone latencies and structural gauges for
// /metrics. Gauges report the most recently built or mutated index — under
// the epoch-snapshot System that is the live epoch, which is the one worth
// watching. Timings are recorded unconditionally; Build and Clone are cold
// paths (one per workload load or write commit), so the time.Now pair is
// noise next to the partitioning work itself.
var (
	mBuilds = obs.Default.Counter("iq_index_builds_total",
		"Full index constructions (Algorithm 1 runs).")
	mBuildSeconds = obs.Default.Histogram("iq_index_build_seconds",
		"Wall time of full index constructions.", nil)
	mClones = obs.Default.Counter("iq_index_clones_total",
		"Copy-on-write index clones taken by the write path.")
	mCloneSeconds = obs.Default.Histogram("iq_index_clone_seconds",
		"Wall time of copy-on-write index clones.", nil)
	mRepartitions = obs.Default.Counter("iq_index_repartitions_total",
		"Partial repartitions triggered by updates.")
	mBatchedRepartitions = obs.Default.Counter("iq_index_batched_repartitions_total",
		"Deferred repartitions coalesced by BeginBatch/EndBatch (one per batch that needed any).")
	mDirtySetSize = obs.Default.Histogram("iq_dirty_set_size",
		"Dirty queries per published mutation (TakeDirty): how much cached state each write invalidates.",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	mSubdomains = obs.Default.Gauge("iq_index_subdomains",
		"Subdomains in the most recently built or mutated index.")
	mCandidates = obs.Default.Gauge("iq_index_candidates",
		"Skyband candidates in the most recently built or mutated index.")
)

func updatesCounter(op string) *obs.Counter {
	return obs.Default.Counter("iq_index_updates_total",
		"Index mutations by operation.", "op", op)
}

// Mutation counters are get-or-created once; update entry points are on the
// server write path and should not pay registry lookups.
var (
	mAddQuery     = updatesCounter("add_query")
	mRemoveQuery  = updatesCounter("remove_query")
	mAddObject    = updatesCounter("add_object")
	mUpdateObject = updatesCounter("update_object")
	mRemoveObject = updatesCounter("remove_object")
)

// publishShape refreshes the structural gauges from one index's state.
func (x *Index) publishShape() {
	mSubdomains.Set(int64(len(x.subs)))
	mCandidates.Set(int64(len(x.candidates)))
}
