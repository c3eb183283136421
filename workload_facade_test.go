package iq

import (
	"math/rand"
	"testing"

	"iq/internal/dataset"
	"iq/internal/obs/workload"
)

// workloadTotalChurn sums commit churn across named regions and the
// overflow slot — commit attribution may land on either side depending on
// whether the dirty set had a meaningful per-region split.
func workloadTotalChurn(snap *workload.Snapshot) int64 {
	total := snap.Overflow.Churn
	for _, r := range snap.Regions {
		total += r.Churn
	}
	return total
}

// TestWorkloadCommitChurnFlows: a strategy commit that actually flips query
// results surfaces as commit churn in the aggregator — the mutateCtx →
// recordCommitChurn path over the same dirty set the cache migration drained.
func TestWorkloadCommitChurnFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := smallSystem(t, rng, 120, 60)
	workload.Default.Reset()

	var flipped int
	for target := 0; target < 40; target++ {
		n, err := sys.CommitAndCount(target, Vector{-0.25, -0.25, -0.25})
		if err != nil {
			t.Fatal(err)
		}
		flipped += n
		if flipped > 0 {
			break
		}
	}
	if flipped == 0 {
		t.Skip("no commit flipped any query result; churn attribution has nothing to see")
	}
	snap := workload.Default.Snapshot()
	if got := workloadTotalChurn(snap); got == 0 {
		t.Fatalf("%d queries flipped but the aggregator saw zero churn", flipped)
	}
}

// TestWorkloadRegionRetirement: regions whose lineage an object mutation
// terminates are retired from the aggregator (mutateCtx → TakeRegionResets →
// RetireRegions), so stale per-region stats can never be read as live ones.
//
// The workload is deliberately dense — few objects, K=1 queries — so
// subdomains hold several queries each. Removing an object then scatters
// its cell's queries across neighbouring cells: membership changes, the
// lineage terminates, and the inherit-or-reset protocol must reset rather
// than inherit. (Sparse workloads degenerate to singleton subdomains, which
// always re-form identically and always inherit.)
func TestWorkloadRegionRetirement(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := dataset.Objects(dataset.Independent, 25, 3, rng)
	queries := make([]Query, 60)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1,
			Point: Vector{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	sys, err := NewLinear(objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	workload.Default.Reset()

	// Populate region slots: spread solves across targets so many regions
	// hold attribution state worth retiring.
	for i := 0; i < 12; i++ {
		if _, err := sys.MinCost(MinCostRequest{Target: rng.Intn(25), Tau: 4, Cost: L2Cost{}}); err != nil {
			t.Fatal(err)
		}
	}
	if snap := workload.Default.Snapshot(); len(snap.Regions) == 0 {
		t.Fatal("solves populated no region slots")
	}

	// Object removals dissolve subdomains and repartition; within a few of
	// them some tracked region's lineage must terminate and be retired.
	for i := 0; i < 40; i++ {
		if i%3 == 2 {
			if _, err := sys.AddObject(Vector{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		} else {
			id := rng.Intn(sys.NumObjects())
			if sys.Workload().IsRemoved(id) || sys.Workload().LiveObjects() < 10 {
				continue
			}
			if err := sys.RemoveObject(id); err != nil {
				t.Fatal(err)
			}
		}
		if workload.Default.Snapshot().RetiredSlots > 0 {
			return
		}
	}
	t.Fatal("40 object mutations never retired a tracked region slot")
}
