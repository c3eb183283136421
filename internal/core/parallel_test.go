package core

import (
	"math/rand"
	"runtime"
	"testing"

	"iq/internal/vec"
)

// Parallel candidate evaluation must be a pure speed knob: identical results
// to serial execution at every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	idx := fixture(t, rng, 120, 80, 3, 4)
	for trial := 0; trial < 6; trial++ {
		target := rng.Intn(idx.Workload().NumObjects())
		tau := 5 + rng.Intn(15)
		serial, err := MinCostIQ(idx, MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := MinCostIQ(idx, MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}, Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !vec.Equal(serial.Strategy, par.Strategy) {
				t.Fatalf("trial %d workers=%d: strategy diverged\n serial %v\n parallel %v",
					trial, workers, serial.Strategy, par.Strategy)
			}
			if serial.Hits != par.Hits || serial.Cost != par.Cost {
				t.Fatalf("trial %d workers=%d: metrics diverged", trial, workers)
			}
		}
	}
}

func TestParallelMaxHitMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	idx := fixture(t, rng, 100, 60, 3, 3)
	for trial := 0; trial < 4; trial++ {
		target := rng.Intn(idx.Workload().NumObjects())
		budget := 0.3 + rng.Float64()*0.5
		serial, err := MaxHitIQ(idx, MaxHitRequest{Target: target, Budget: budget, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		par, err := MaxHitIQ(idx, MaxHitRequest{Target: target, Budget: budget, Cost: L2Cost{}, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(serial.Strategy, par.Strategy) || serial.Hits != par.Hits {
			t.Fatalf("trial %d: parallel MaxHit diverged", trial)
		}
	}
}

// unboundedL2 is the L2 cost as a user type: a greedy round has no probe
// bounds for it, so its first batch is every unhit row, fanned out across
// the workers.
type unboundedL2 struct{ L2Cost }

// TestDeterministicParallelismAcrossSeeds is the property test backing the
// tie-break rules documented in DESIGN.md ("Deterministic parallelism"):
// for every seed and every worker count, MinCost and MaxHit must be
// bit-identical to their serial runs — same strategy vector, same cost,
// same hit count, and identical error outcomes — and must solve and count
// the same probes (Stats.Probes, Stats.Counted).
func TestDeterministicParallelismAcrossSeeds(t *testing.T) {
	workerCounts := []int{2, 4, 8}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := fixture(t, rng, 90, 60, 3, 3)
		for trial := 0; trial < 3; trial++ {
			target := rng.Intn(idx.Workload().NumObjects())
			tau := 4 + rng.Intn(10)
			budget := 0.2 + rng.Float64()*0.6

			for _, cost := range []Cost{L2Cost{}, unboundedL2{}} {
				serialMC, errMC := MinCostIQ(idx, MinCostRequest{Target: target, Tau: tau, Cost: cost})
				serialMH, errMH := MaxHitIQ(idx, MaxHitRequest{Target: target, Budget: budget, Cost: cost})
				for _, workers := range workerCounts {
					parMC, perr := MinCostIQ(idx, MinCostRequest{Target: target, Tau: tau, Cost: cost, Workers: workers})
					if (errMC == nil) != (perr == nil) {
						t.Fatalf("seed %d workers=%d: MinCost error diverged: serial=%v parallel=%v",
							seed, workers, errMC, perr)
					}
					if errMC == nil {
						if !vec.Equal(serialMC.Strategy, parMC.Strategy) ||
							serialMC.Cost != parMC.Cost || serialMC.Hits != parMC.Hits ||
							serialMC.Stats.Probes != parMC.Stats.Probes || serialMC.Stats.Counted != parMC.Stats.Counted {
							t.Fatalf("seed %d workers=%d target=%d tau=%d: MinCost diverged\n serial %v cost=%v hits=%d probes=%d counted=%d\n parallel %v cost=%v hits=%d probes=%d counted=%d",
								seed, workers, target, tau,
								serialMC.Strategy, serialMC.Cost, serialMC.Hits, serialMC.Stats.Probes, serialMC.Stats.Counted,
								parMC.Strategy, parMC.Cost, parMC.Hits, parMC.Stats.Probes, parMC.Stats.Counted)
						}
					}
					parMH, perr := MaxHitIQ(idx, MaxHitRequest{Target: target, Budget: budget, Cost: cost, Workers: workers})
					if (errMH == nil) != (perr == nil) {
						t.Fatalf("seed %d workers=%d: MaxHit error diverged: serial=%v parallel=%v",
							seed, workers, errMH, perr)
					}
					if errMH == nil {
						if !vec.Equal(serialMH.Strategy, parMH.Strategy) ||
							serialMH.Cost != parMH.Cost || serialMH.Hits != parMH.Hits ||
							serialMH.Stats.Probes != parMH.Stats.Probes || serialMH.Stats.Counted != parMH.Stats.Counted {
							t.Fatalf("seed %d workers=%d target=%d budget=%v: MaxHit diverged\n serial %v cost=%v hits=%d probes=%d counted=%d\n parallel %v cost=%v hits=%d probes=%d counted=%d",
								seed, workers, target, budget,
								serialMH.Strategy, serialMH.Cost, serialMH.Hits, serialMH.Stats.Probes, serialMH.Stats.Counted,
								parMH.Strategy, parMH.Cost, parMH.Hits, parMH.Stats.Probes, parMH.Stats.Counted)
						}
					}
				}
			}
		}
	}
}

// Degenerate Workers values must clamp rather than misbehave.
func TestClampWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	if gmp < 2 {
		gmp = 2
	}
	cases := []struct {
		workers, queries, want int
	}{
		{-5, 100, 1},          // negative → serial
		{0, 100, 1},           // zero → serial
		{1, 100, 1},           // serial stays serial
		{2, 100, min(2, gmp)}, // modest request honoured
		{1 << 20, 100, gmp},   // absurd request → CPU ceiling
		{8, 3, min(3, gmp)},   // never more workers than queries
		{4, 0, min(4, gmp)},   // zero queries: CPU ceiling only
		{3, 1, 1},             // single query → serial
	}
	for _, c := range cases {
		if got := clampWorkers(c.workers, c.queries); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.workers, c.queries, got, c.want)
		}
	}
}
