//go:build !race

// Allocation regression pins for the solver hot path and the cross-solve
// caches. The race detector instruments allocations, so these only run in
// normal builds (ci.sh runs `go test -short ./...` without -race alongside
// the -race pass).

package core

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/bitset"
	"iq/internal/vec"
)

// A cache-warm linear-path probe (threshold lookup + closed-form halfspace
// projection) must allocate only the returned strategy vector — everything
// else lives in probeScratch. The ceiling is deliberately a little loose so
// runtime-internal noise cannot flake the build, but map-per-call or
// clone-per-call regressions (dozens of allocations) trip it immediately.
func TestSolveHitAllocsLinearWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		target := 3
		cur := make(vec.Vector, 3)
		bounds := &Bounds{Lo: vec.Vector{-1, -1, -1}, Hi: vec.Vector{1, 1, 1}}
		sc := &probeScratch{}
		// Warm the threshold cache and the scratch buffers.
		for j := 0; j < idx.Workload().NumQueries(); j++ {
			if _, err := solveHit(idx, target, cur, j, L2Cost{}, bounds, sc, nil); err != nil {
				t.Fatal(err)
			}
		}
		j := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := solveHit(idx, target, cur, j, L2Cost{}, bounds, sc, nil); err != nil {
				t.Fatal(err)
			}
			j = (j + 1) % idx.Workload().NumQueries()
		})
		if allocs > 4 {
			t.Errorf("warm linear probe allocates %.1f times per call; want <= 4", allocs)
		}
	})
}

// A cache-warm greedy round (generateCandidates over the full unhit set on
// the serial path) must allocate proportionally to the number of probes —
// one strategy vector each — not to the workload size squared. Before the
// sweep each round also built a fresh unhit slice, a results slice, a
// map-based hit set per evaluation, and per-probe bounds clones.
func TestGenerateCandidatesAllocsPerRoundWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		ctx := context.Background()
		target := 2
		pool, release, err := AcquireEvaluators(ctx, idx, target, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		hit := bitset.New(idx.Workload().NumQueries())
		pool[0].BaseHitSet(hit)
		cur := make(vec.Vector, 3)
		rs := &roundScratch{}
		rec := newRecorder()
		probes := 0
		warm := func() int {
			cands, err := generateCandidates(ctx, idx, pool, target, cur, hit, L2Cost{}, nil, rs, rec)
			if err != nil {
				t.Fatal(err)
			}
			return len(cands)
		}
		probes = warm() // fill every scratch buffer and the threshold cache
		if probes == 0 {
			t.Fatal("fixture produced no candidates; pick a different target")
		}
		allocs := testing.AllocsPerRun(20, func() { warm() })
		perProbe := allocs / float64(probes)
		if perProbe > 4 {
			t.Errorf("warm round allocates %.2f per probe (%d probes, %.0f total); want <= 4",
				perProbe, probes, allocs)
		}
	})
}

// A cache-warm solve must allocate strictly less than the same solve down
// the uncached reference path: recycled evaluators and threshold tables are
// what the caches save, so a change that stops reusing them shows here as an
// allocation count rather than as a noisy timing.
func TestWarmSolveAllocsBelowUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := fixture(t, rng, 150, 60, 3, 3)
	solves := []struct {
		name string
		run  func()
	}{
		{"MinCost", func() {
			if _, err := MinCostIQ(idx, MinCostRequest{Target: 4, Tau: 8, Cost: L2Cost{}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"MaxHit", func() {
			if _, err := MaxHitIQ(idx, MaxHitRequest{Target: 4, Budget: 0.3, Cost: L2Cost{}}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range solves {
		// AllocsPerRun's untimed warm-up run fills the caches.
		var warm, uncached float64
		withCaches(t, true, func() { warm = testing.AllocsPerRun(5, s.run) })
		withCaches(t, false, func() { uncached = testing.AllocsPerRun(5, s.run) })
		if warm >= uncached {
			t.Errorf("%s: cache-warm solve allocates %.0f times, uncached %.0f; the caches no longer save allocations",
				s.name, warm, uncached)
		}
	}
}
