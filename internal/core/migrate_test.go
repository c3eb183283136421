package core

import (
	"math/rand"
	"testing"

	"iq/internal/subdomain"
	"iq/internal/vec"
)

// farAttrs builds an attribute vector strictly worse than every live object
// on every axis: such an object is dominated by the whole candidate skyband,
// never becomes a candidate, and mutating it produces an empty dirty set.
func farAttrs(idx *subdomain.Index) vec.Vector {
	w := idx.Workload()
	d := len(w.Attrs(0))
	far := make(vec.Vector, d)
	for id := 0; id < w.NumObjects(); id++ {
		if w.IsRemoved(id) {
			continue
		}
		for i, a := range w.Attrs(id) {
			if a > far[i] {
				far[i] = a
			}
		}
	}
	for i := range far {
		far[i] += 1000
	}
	return far
}

// TestMigrateKeepsWarmPath is the tentpole acceptance check at the core
// layer: after a mutation whose dirty set excludes the target, the migrated
// threshold cache serves the repeat solve without a single miss, and the
// result stays bit-identical to the pre-mutation answer.
func TestMigrateKeepsWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := fixture(t, rng, 80, 50, 3, 3)
	farID, err := idx.AddObject(farAttrs(idx))
	if err != nil {
		t.Fatal(err)
	}
	idx.TakeDirty()
	target := rng.Intn(40)
	req := MinCostRequest{Target: target, Tau: 5, Cost: L2Cost{}, Workers: 2}

	withCaches(t, true, func() {
		warm, err := MinCostIQ(idx, req)
		if err != nil {
			t.Fatal(err)
		}

		// Mutate the far object on a clone: the dirty set is empty apart
		// from the object itself, so every threshold entry must survive.
		next := idx.Clone(idx.Workload().Clone())
		attrs := vec.Clone(next.Workload().Attrs(farID))
		attrs[0] += 50
		if err := next.UpdateObject(farID, attrs); err != nil {
			t.Fatal(err)
		}
		ds := next.TakeDirty()
		if ds.QueryCount() != 0 || ds.CandidatesChanged() {
			t.Fatalf("far-object update was not clean: queries=%d candChanged=%v", ds.QueryCount(), ds.CandidatesChanged())
		}
		MigrateSolveCaches(idx, next, ds)

		res, err := MinCostIQ(next, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ThresholdCacheMisses != 0 {
			t.Fatalf("post-migration solve took %d threshold misses (hits %d); warm path cold-started",
				res.Stats.ThresholdCacheMisses, res.Stats.ThresholdCacheHits)
		}
		if !sameResult(warm, res) {
			t.Fatalf("post-migration result diverged: %v cost=%v vs %v cost=%v",
				warm.Strategy, warm.Cost, res.Strategy, res.Cost)
		}
	})
}

// TestMigrateDirtyMutationStaysCorrect warms the cache, applies a mutation
// that IS visible to top-k results (improving a random live object), migrates,
// and checks the migrated warm solve against a fully cold solve on the new
// index — the dirty set may keep entries, but never stale ones.
func TestMigrateDirtyMutationStaysCorrect(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := fixture(t, rng, 70, 45, 3, 3)
		target := rng.Intn(idx.Workload().NumObjects())
		req := MinCostRequest{Target: target, Tau: 4, Cost: L2Cost{}, Workers: 1}

		var migrated *Result
		withCaches(t, true, func() {
			if _, err := MinCostIQ(idx, req); err != nil {
				t.Fatal(err)
			}
			next := idx.Clone(idx.Workload().Clone())
			id := rng.Intn(next.Workload().NumObjects())
			attrs := vec.Clone(next.Workload().Attrs(id))
			for i := range attrs {
				attrs[i] -= rng.Float64() * 0.2
			}
			if err := next.UpdateObject(id, attrs); err != nil {
				t.Fatal(err)
			}
			MigrateSolveCaches(idx, next, next.TakeDirty())
			var err error
			migrated, err = MinCostIQ(next, req)
			if err != nil {
				t.Fatal(err)
			}
			idx = next
		})
		var cold *Result
		withCaches(t, false, func() {
			var err error
			cold, err = MinCostIQ(idx, req)
			if err != nil {
				t.Fatal(err)
			}
		})
		if !sameResult(cold, migrated) {
			t.Fatalf("seed %d: migrated warm solve diverged from cold truth\n cold %v cost=%v hits=%d\n warm %v cost=%v hits=%d",
				seed, cold.Strategy, cold.Cost, cold.Hits, migrated.Strategy, migrated.Cost, migrated.Hits)
		}
	}
}
