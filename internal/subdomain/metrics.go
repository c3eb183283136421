package subdomain

import "iq/internal/obs"

// Index-side observability: build/clone latencies and the skyband gauge for
// /metrics. The gauge reports the most recently built or mutated index —
// under the epoch-snapshot System that is the live epoch, which is the one
// worth watching. Timings are recorded unconditionally; BuildCtx and
// CloneCtx are cold paths (one per workload load or write commit), so the
// time.Now pair is noise next to the skyband computation itself.
var (
	mBuilds = obs.Default.Counter("iq_index_builds_total",
		"Index constructions (candidate skyband and per-query rows).")
	mBuildSeconds = obs.Default.Histogram("iq_index_build_seconds",
		"Wall time of index constructions: the candidate skyband and the per-query rows.", nil)
	mClones = obs.Default.Counter("iq_index_clones_total",
		"Copy-on-write index clones taken by the write path.")
	mCloneSeconds = obs.Default.Histogram("iq_index_clone_seconds",
		"Wall time of copy-on-write index clones.", nil)
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
