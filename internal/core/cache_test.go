package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"iq/internal/topk"
	"iq/internal/vec"
)

// withCaches runs fn with the solve caches forced to enabled, restoring the
// previous setting afterwards. Each run starts cold via PurgeSolveCaches so
// tests cannot leak warm entries into each other.
func withCaches(t *testing.T, enabled bool, fn func()) {
	t.Helper()
	prev := SetSolveCacheEnabled(enabled)
	PurgeSolveCaches()
	defer func() {
		SetSolveCacheEnabled(prev)
		PurgeSolveCaches()
	}()
	fn()
}

func sameResult(a, b *Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return vec.Equal(a.Strategy, b.Strategy) && a.Cost == b.Cost &&
		a.Hits == b.Hits && a.BaseHits == b.BaseHits
}

// TestSolveCacheBitIdentical is the PR 5 counterpart of the deterministic
// parallelism property test: across seeds, targets, and worker counts, a
// cache-warm solve must return bit-identical results to the uncached path —
// same strategy vector, same cost, same hit counts, same error outcome.
func TestSolveCacheBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := fixture(t, rng, 90, 60, 3, 3)
		for trial := 0; trial < 3; trial++ {
			target := rng.Intn(idx.Workload().NumObjects())
			tau := 4 + rng.Intn(10)
			budget := 0.2 + rng.Float64()*0.6
			for _, workers := range []int{1, 4} {
				mcReq := MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}, Workers: workers}
				mhReq := MaxHitRequest{Target: target, Budget: budget, Cost: L2Cost{}, Workers: workers}

				var coldMC, coldMH *Result
				var coldMCErr, coldMHErr error
				withCaches(t, false, func() {
					coldMC, coldMCErr = MinCostIQ(idx, mcReq)
					coldMH, coldMHErr = MaxHitIQ(idx, mhReq)
				})
				withCaches(t, true, func() {
					// Twice: the first solve fills the caches, the second
					// exercises the fully warm path.
					for pass := 0; pass < 2; pass++ {
						mc, err := MinCostIQ(idx, mcReq)
						if (err == nil) != (coldMCErr == nil) {
							t.Fatalf("seed %d trial %d workers %d pass %d: MinCost error diverged: cached=%v uncached=%v",
								seed, trial, workers, pass, err, coldMCErr)
						}
						if !sameResult(coldMC, mc) {
							t.Fatalf("seed %d trial %d workers %d pass %d: MinCost diverged\n uncached %v cost=%v hits=%d\n cached   %v cost=%v hits=%d",
								seed, trial, workers, pass,
								coldMC.Strategy, coldMC.Cost, coldMC.Hits,
								mc.Strategy, mc.Cost, mc.Hits)
						}
						mh, err := MaxHitIQ(idx, mhReq)
						if (err == nil) != (coldMHErr == nil) {
							t.Fatalf("seed %d trial %d workers %d pass %d: MaxHit error diverged: cached=%v uncached=%v",
								seed, trial, workers, pass, err, coldMHErr)
						}
						if !sameResult(coldMH, mh) {
							t.Fatalf("seed %d trial %d workers %d pass %d: MaxHit diverged", seed, trial, workers, pass)
						}
					}
				})
			}
		}
	}
}

// A repeat solve against the same (index, target) must be served from the
// threshold cache: zero misses, and every lookup a hit. The per-solve
// SolveStats expose the split so operators can see cache health per request.
func TestThresholdCacheWarmStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		first, err := MinCostIQ(idx, MinCostRequest{Target: 3, Tau: 8, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.ThresholdCacheMisses == 0 {
			t.Fatalf("cold solve recorded no threshold misses: %+v", first.Stats)
		}
		if first.Stats.Rounds > 1 && first.Stats.ThresholdCacheHits == 0 {
			t.Errorf("multi-round solve reused no thresholds across rounds: %+v", first.Stats)
		}
		second, err := MinCostIQ(idx, MinCostRequest{Target: 3, Tau: 8, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats.ThresholdCacheMisses != 0 {
			t.Errorf("warm solve missed the threshold cache %d times", second.Stats.ThresholdCacheMisses)
		}
		if second.Stats.ThresholdCacheHits == 0 {
			t.Error("warm solve recorded no threshold cache hits")
		}
		if !sameResult(first, second) {
			t.Error("warm solve changed the result")
		}
	})
}

// With caches disabled the stats must stay zero — the recorder only counts
// actual cache traffic.
func TestThresholdCacheStatsZeroWhenDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx := fixture(t, rng, 60, 40, 3, 3)
	withCaches(t, false, func() {
		res, err := MinCostIQ(idx, MinCostRequest{Target: 1, Tau: 5, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ThresholdCacheHits != 0 || res.Stats.ThresholdCacheMisses != 0 {
			t.Errorf("cache-off solve recorded cache traffic: %+v", res.Stats)
		}
	})
}

// In-place mutations (UpdateObject, AddQuery, RemoveQuery) advance the index
// epoch; cached thresholds from the old epoch must not leak into results.
// Oracle: the uncached path against the mutated index.
func TestThresholdCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	idx := fixture(t, rng, 80, 50, 3, 3)
	req := MinCostRequest{Target: 4, Tau: 7, Cost: L2Cost{}}

	mutate := []struct {
		name string
		do   func(t *testing.T)
	}{
		{"update-object", func(t *testing.T) {
			// Move a competitor: most thresholds involving it change.
			if err := idx.UpdateObject(11, vec.Vector{0.9, 0.9, 0.9}); err != nil {
				t.Fatal(err)
			}
		}},
		{"add-query", func(t *testing.T) {
			// Grow the workload: cached tables are now the wrong length.
			q := topk.Query{ID: 9000, K: 2, Point: vec.Vector{0.2, 0.3, 0.5}}
			if _, err := idx.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove-query", func(t *testing.T) {
			if err := idx.RemoveQuery(2); err != nil {
				t.Fatal(err)
			}
		}},
	}

	withCaches(t, true, func() {
		if _, err := MinCostIQ(idx, req); err != nil { // warm the caches
			t.Fatal(err)
		}
		for _, m := range mutate {
			epoch := idx.Epoch()
			m.do(t)
			if idx.Epoch() == epoch {
				t.Fatalf("%s did not advance the epoch", m.name)
			}
			cached, cachedErr := MinCostIQ(idx, req)

			// Oracle solve with caches off — toggled without purging, so the
			// next loop iteration still starts with entries warmed at the
			// pre-mutation epoch.
			SetSolveCacheEnabled(false)
			fresh, freshErr := MinCostIQ(idx, req)
			SetSolveCacheEnabled(true)
			if (cachedErr == nil) != (freshErr == nil) {
				t.Fatalf("%s: error diverged: cached=%v fresh=%v", m.name, cachedErr, freshErr)
			}
			if !sameResult(fresh, cached) {
				t.Fatalf("%s: stale cache leaked into result\n fresh  %+v\n cached %+v", m.name, fresh, cached)
			}
		}
	})
}

// The exhaustive verifier reads the same stored hit tables as the greedy
// solvers; every threshold one serves — on the building lookup and on the
// stored one — must equal the k-th competitor score among all other live
// objects, computed directly.
func TestCachedThresholdMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := fixture(t, rng, 50, 30, 3, 3)
	w := idx.Workload()
	withCaches(t, true, func() {
		for target := 0; target < 5; target++ {
			var others []int
			for i := 0; i < w.NumObjects(); i++ {
				if i != target {
					others = append(others, i)
				}
			}
			first := hitTableFor(context.Background(), idx, target, nil)
			for pass := 0; pass < 2; pass++ {
				tab := hitTableFor(context.Background(), idx, target, nil)
				if tab != first {
					t.Fatalf("target %d pass %d: the stored table was rebuilt", target, pass)
				}
				for j := 0; j < w.NumQueries(); j++ {
					res := w.EvaluateAmong(others, w.Query(j))
					wantOK := len(res.Ordered) >= w.Query(j).K
					got, ok := tab.threshold(j)
					if ok != wantOK || (ok && got != res.KthScore) {
						t.Fatalf("target %d query %d pass %d: table (%v,%v) != direct (%v,%v)",
							target, j, pass, got, ok, res.KthScore, wantOK)
					}
				}
			}
		}
	})
}

// Concurrent first uses of one (snapshot, target) table share one build:
// every caller gets the same table, and its rows are computed once.
func TestHitTableConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		const callers = 8
		tabs := make([]*hitTable, callers)
		recs := make([]*recorder, callers)
		var wg sync.WaitGroup
		for i := range tabs {
			recs[i] = newRecorder()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tabs[i] = hitTableFor(context.Background(), idx, 3, recs[i])
			}(i)
		}
		wg.Wait()
		misses := 0
		for i, tab := range tabs {
			if tab != tabs[0] {
				t.Fatalf("caller %d got a different table", i)
			}
			misses += int(recs[i].thrMisses.Load())
		}
		if want := idx.Workload().NumQueries(); misses != want {
			t.Fatalf("%d rows computed across %d concurrent first uses, want %d (one build)", misses, callers, want)
		}
	})
}
