//go:build !race

// Allocation regression pins for the solver hot path and the stored hit
// tables. The race detector instruments allocations, so these only run in
// normal builds (ci.sh runs `go test -short ./...` without -race alongside
// the -race pass).

package core

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/bitset"
	"iq/internal/subdomain"
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
	target := 3
	cur := make(vec.Vector, 3)
	bounds := &Bounds{Lo: vec.Vector{-1, -1, -1}, Hi: vec.Vector{1, 1, 1}}
	sc := &probeScratch{}
	w := idx.Workload()
	tab := hitTableFor(context.Background(), idx, target, nil)
	// Warm the scratch buffers.
	for j := 0; j < w.NumQueries(); j++ {
		if _, err := solveHit(w, tab, cur, j, L2Cost{}, bounds, sc); err != nil {
			t.Fatal(err)
		}
	}
	j := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := solveHit(w, tab, cur, j, L2Cost{}, bounds, sc); err != nil {
			t.Fatal(err)
		}
		j = (j + 1) % idx.Workload().NumQueries()
	})
	if allocs > 4 {
		t.Errorf("warm linear probe allocates %.1f times per call; want <= 4", allocs)
	}
}

// A cache-warm greedy round (generateCandidates over the full unhit set on
// the serial path, then the round's pick) must allocate proportionally to
// the number of probes — one strategy vector each — not to the workload size
// squared. Before the sweep each round also built a fresh unhit slice, a
// results slice, a map-based hit set per evaluation, and per-probe bounds
// clones; bounding and counting hits against the shared table allocates
// nothing. At 600 queries the per-probe ceiling is tight: an untraced span
// attribute that boxes a query index or hit count (≥ 256) shows here.
func TestGenerateCandidatesAllocsPerRoundWarm(t *testing.T) {
	for _, c := range []struct {
		queries int
		ceiling float64
	}{{50, 4}, {600, 1.1}} {
		rng := rand.New(rand.NewSource(22))
		idx := fixture(t, rng, 80, c.queries, 3, 3)
		ctx := context.Background()
		target := 2
		w := idx.Workload()
		rec := newRecorder()
		tab := hitTableFor(ctx, idx, target, rec)
		rs := &roundScratch{tab: tab, rec: rec}
		hit := bitset.New(w.NumQueries())
		base := tab.hitSet(w.Coeff(target), hit)
		cur := make(vec.Vector, 3)
		round := func() int {
			if err := generateCandidates(ctx, w, 1, cur, w.Coeff(target), hit, L2Cost{}, nil, rs); err != nil {
				t.Fatal(err)
			}
			if _, ok := rs.best(ctx, base); !ok {
				t.Fatal("round found no candidate gaining a hit")
			}
			return len(rs.cands)
		}
		probes := round() // fill every scratch buffer
		if probes == 0 {
			t.Fatal("fixture produced no candidates; pick a different target")
		}
		allocs := testing.AllocsPerRun(20, func() { round() })
		perProbe := allocs / float64(probes)
		if perProbe > c.ceiling {
			t.Errorf("%d queries: warm round allocates %.2f per probe (%d probes, %.0f total); want <= %g",
				c.queries, perProbe, probes, allocs, c.ceiling)
		}
	}
}

// A solve served from the stored table must allocate strictly less than the
// same solve on a fresh clone of the snapshot, whose empty Memo makes it
// derive the table: the stored table is what the cache saves, so a change
// that stops reusing it shows here as an allocation count rather than as a
// noisy timing.
func TestWarmSolveAllocsBelowUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := fixture(t, rng, 150, 60, 3, 3)
	solves := []struct {
		name string
		run  func(idx *subdomain.Index)
	}{
		{"MinCost", func(idx *subdomain.Index) {
			if _, err := MinCostIQ(idx, MinCostRequest{Target: 4, Tau: 8, Cost: L2Cost{}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"MaxHit", func(idx *subdomain.Index) {
			if _, err := MaxHitIQ(idx, MaxHitRequest{Target: 4, Budget: 0.3, Cost: L2Cost{}}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range solves {
		// AllocsPerRun's untimed warm-up run stores the table on idx.
		warm := testing.AllocsPerRun(5, func() { s.run(idx) })
		// One fresh clone for the warm-up run and each of the 5 runs,
		// cloned before the count starts.
		clones := make([]*subdomain.Index, 6)
		for i := range clones {
			clones[i] = idx.Clone(idx.Workload().Clone())
		}
		uncached := testing.AllocsPerRun(5, func() {
			s.run(clones[0])
			clones = clones[1:]
		})
		if warm >= uncached {
			t.Errorf("%s: stored-table solve allocates %.0f times, deriving one %.0f; the stored tables no longer save allocations",
				s.name, warm, uncached)
		}
	}
}
