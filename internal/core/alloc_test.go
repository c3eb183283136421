//go:build !race

// Allocation regression pins for the solver hot path and the stored hit
// tables. The race detector instruments allocations, so these only run in
// normal builds (ci.sh runs `go test -short ./...` without -race alongside
// the -race pass).

package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"iq/internal/lp"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// A cache-warm linear-path probe (threshold lookup, then a built-in cost's
// closed form) writes its strategy into the caller's buffer and its shifted
// bounds into probeScratch. Without bounds it allocates nothing: a
// per-probe strategy vector, a map or a clone shows here at once. With
// bounds a closed form allocates only its own temporaries: the boxed L2
// projection its per-coordinate flags, the L1 fill its order, and the
// weighted L2 cost three rescaled vectors besides the flags.
func TestSolveHitAllocsLinearWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	idx := fixture(t, rng, 80, 50, 3, 3)
	target := 3
	w := idx.Workload()
	tab := hitTableFor(context.Background(), idx, target, nil)
	cur := make(vec.Vector, 3)
	u := make(vec.Vector, 3)
	sc := &probeScratch{}
	box := &Bounds{Lo: vec.Vector{-1, -1, -1}, Hi: vec.Vector{1, 1, 1}}
	weighted := WeightedL2Cost{Alpha: vec.Vector{1, 2, 3}}
	for _, c := range []struct {
		cost    Cost
		bounds  *Bounds
		ceiling float64
	}{
		{L2Cost{}, nil, 0}, {L1Cost{}, nil, 0}, {weighted, nil, 0},
		{L2Cost{}, box, 1}, {L1Cost{}, box, 1}, {weighted, box, 4},
	} {
		j, solved := 0, 0
		probe := func() {
			q := w.Query(j).Point
			if err := solveHit(u, w, tab, cur, j, vec.Dot(w.Coeff(target), q), c.cost, c.bounds, sc); err == nil {
				solved++
			} else if !errors.Is(err, lp.ErrInfeasible) {
				t.Fatal(err)
			}
			j = (j + 1) % w.NumQueries()
		}
		probe() // warm the scratch buffers
		allocs := testing.AllocsPerRun(200, probe)
		if solved == 0 {
			t.Fatalf("%T bounds=%v: no probe was feasible", c.cost, c.bounds != nil)
		}
		if allocs > c.ceiling {
			t.Errorf("%T bounds=%v: warm linear probe allocates %.1f times per call; want <= %g",
				c.cost, c.bounds != nil, allocs, c.ceiling)
		}
	}
}

// A cache-warm greedy round (generateCandidates over the full unhit set on
// the serial path, then the round's pick) allocates nothing, whatever its
// probe count: the round's one pass over the table, its bound and its
// selection heap reuse their buffers, each probe writes its strategy and
// improved coefficients into the round's slot buffers, and untraced spans
// box no attribute (SetAttr boxes an int, which allocates from 256 up, so a
// boxed unhit count or query index shows at 600 queries).
func TestGenerateCandidatesAllocsPerRoundWarm(t *testing.T) {
	for _, queries := range []int{50, 600} {
		rng := rand.New(rand.NewSource(22))
		idx := fixture(t, rng, 80, queries, 3, 3)
		ctx := context.Background()
		target := 2
		w := idx.Workload()
		rec := newRecorder()
		tab := hitTableFor(ctx, idx, target, rec)
		rs := &roundScratch{tab: tab, rec: rec}
		base := tab.hits(w.Coeff(target))
		cur := make(vec.Vector, 3)
		round := func() {
			if err := generateCandidates(ctx, w, 1, cur, w.Coeff(target), L2Cost{}, nil, rs); err != nil {
				t.Fatal(err)
			}
			if _, ok := rs.best(ctx, base); !ok {
				t.Fatal("round found no candidate gaining a hit")
			}
		}
		round() // fill every scratch buffer
		if len(rs.cands) == 0 {
			t.Fatal("fixture produced no candidates; pick a different target")
		}
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%d queries: warm round allocates %.0f times (%d probes); want 0",
				queries, allocs, len(rs.cands))
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
