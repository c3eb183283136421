//go:build !race

// Allocation regression pins for the solver hot path and the stored hit
// tables. The race detector instruments allocations, so these only run in
// normal builds (ci.sh runs `go test -short ./...` without -race alongside
// the -race pass).

package core

import (
	"context"
	"errors"
	"math"
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

// A cache-warm greedy round — the pass (generateCandidates), best, the
// anti-overshoot cheapest pass, and every probe their bounds make them
// solve — allocates nothing with an unbounded built-in cost, whatever its
// probe count: the round's one pass over the table, its bounds and its
// selection heap reuse their buffers, each probe writes its
// strategy and improved coefficients into the round's slot buffers, and
// untraced spans box no attribute (SetAttr boxes an int, which allocates
// from 256 up, so a boxed unhit count or query index shows at 600 queries).
// The first round's probe bounds are taken once per solve, in the warm-up.
func TestGenerateCandidatesAllocsPerRoundWarm(t *testing.T) {
	costs := []Cost{L2Cost{}, L1Cost{}, WeightedL2Cost{Alpha: vec.Vector{1, 2, 3}}}
	for _, queries := range []int{50, 600} {
		rng := rand.New(rand.NewSource(22))
		idx := fixture(t, rng, 80, queries, 3, 3)
		ctx := context.Background()
		target := 2
		w := idx.Workload()
		rec := newRecorder()
		tab := hitTableFor(ctx, idx, target, rec)
		base := tab.hits(w.Coeff(target))
		cur := make(vec.Vector, 3)
		for _, cost := range costs {
			rs := &roundScratch{tab: tab, rec: rec}
			round := func() {
				generateCandidates(ctx, w, cur, w.Coeff(target), cost, nil, rs)
				best, ok, err := rs.best(ctx, base)
				if err != nil || !ok {
					t.Fatalf("round found no candidate gaining a hit (%v)", err)
				}
				if _, ok, err := rs.cheapest(ctx, best.Hits, math.Inf(1)); err != nil || !ok {
					t.Fatalf("the best candidate does not qualify as the cheapest (%v)", err)
				}
			}
			round() // fill every scratch buffer
			solved := 0
			for _, st := range rs.state {
				if st != slotOpen {
					solved++
				}
			}
			if solved == 0 {
				t.Fatal("fixture produced no candidates; pick a different target")
			}
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Errorf("%d queries, %T: warm round allocates %.0f times (%d of %d probes solved); want 0",
					queries, cost, allocs, solved, len(rs.state))
			}
		}
	}
}

// An expression cost names its variables once, in NewExprCost: Of
// allocates only its environment map (a header and one group), not a
// formatted name per variable.
// The numeric minimiser behind its MinToHalfspace writes its line-search
// points into reused buffers, so with a cost that allocates nothing a call
// allocates its four vectors however many golden-section steps it takes.
func TestExprCostAllocs(t *testing.T) {
	c, err := NewExprCost("s1^2 + 2*s2^2 + s3^2", 3)
	if err != nil {
		t.Fatal(err)
	}
	s := vec.Vector{0.1, -0.2, 0.3}
	if allocs := testing.AllocsPerRun(100, func() { c.Of(s) }); allocs > 2 {
		t.Errorf("ExprCost.Of allocates %.0f times per call; want <= 2", allocs)
	}
	n := vec.Vector{0.5, 0.3, 0.2}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := lp.MinCostToHalfspace(vec.Norm1, n, -0.4); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("lp.MinCostToHalfspace allocates %.0f times per call; want <= 4", allocs)
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
