package iq

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"iq/internal/dataset"
	"iq/internal/ese"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// checkHitOracle compares every hit count the engine reports for a few live
// targets — Hits, EvaluateStrategy and an ESE evaluator on random
// strategies, and a greedy solve's Hits and BaseHits — with brute-force
// HitsExact on the same snapshot (Eq. 6 by definition). It also checks the
// grouping invariant of the Algorithm 1 partition the ESE evaluators share.
// strategy draws one candidate strategy.
func checkHitOracle(t *testing.T, rng *rand.Rand, sys *System, strategies int, strategy func() Vector) {
	t.Helper()
	idx := sys.Index()
	w := idx.Workload()
	part := subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{})
	exact := func(target int, s Vector) int {
		t.Helper()
		h, err := w.HitsExact(vec.Add(w.Attrs(target), s), target)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	checked := 0
	for target := 0; target < w.NumObjects() && checked < 4; target++ {
		if w.IsRemoved(target) {
			continue
		}
		checked++
		zero := make(Vector, len(w.Attrs(target)))
		base := exact(target, zero)
		if h, err := sys.Hits(target); err != nil || h != base {
			t.Fatalf("target %d: Hits %d (%v), HitsExact %d", target, h, err, base)
		}
		ev, err := ese.New(part, target)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < strategies; i++ {
			s := strategy()
			h, err := sys.EvaluateStrategy(target, s)
			if err != nil {
				t.Fatal(err)
			}
			want := exact(target, s)
			if h != want {
				t.Fatalf("target %d strategy %v: table counts %d, HitsExact %d", target, s, h, want)
			}
			if h, err := ev.Hits(s); err != nil || h != want {
				t.Fatalf("target %d strategy %v: ESE counts %d (%v), HitsExact %d", target, s, h, err, want)
			}
		}
		tau := min(base+1+rng.Intn(6), w.LiveQueries())
		mc, err := sys.MinCost(MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}})
		if err == nil && (mc.Hits != exact(target, mc.Strategy) || mc.BaseHits != base) {
			t.Fatalf("target %d MinCost: Hits %d BaseHits %d, HitsExact %d and %d",
				target, mc.Hits, mc.BaseHits, exact(target, mc.Strategy), base)
		}
		mh, err := sys.MaxHit(MaxHitRequest{Target: target, Budget: 0.2, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		if mh.Hits != exact(target, mh.Strategy) || mh.BaseHits != base {
			t.Fatalf("target %d MaxHit: Hits %d BaseHits %d, HitsExact %d and %d",
				target, mh.Hits, mh.BaseHits, exact(target, mh.Strategy), base)
		}
	}
	if err := part.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// checkPartition runs Algorithm 1 over the index's current state and checks
// the grouping invariant of the partition it builds.
func checkPartition(idx *subdomain.Index) error {
	return subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{}).CheckInvariant()
}

// uniformStrategy draws strategies of mixed scale and sign in d dimensions.
func uniformStrategy(rng *rand.Rand, d int) func() Vector {
	return func() Vector {
		scale := []float64{0.001, 0.05, 0.3}[rng.Intn(3)]
		s := make(Vector, d)
		for i := range s {
			s[i] = scale * (2*rng.Float64() - 1.3)
		}
		return s
	}
}

// TestHitTableMatchesHitsExact is the Eq. 6 oracle: the engine counts hits
// against a per-snapshot threshold table derived from the index rows, and
// every count must equal brute-force HitsExact — on IN and AC data, on
// integer data where scores tie at the k-th place, in a non-linear space,
// and after every System mutation kind, which exercises both rows a mutation
// replaced and rows it left as they were.
func TestHitTableMatchesHitsExact(t *testing.T) {
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		rng := rand.New(rand.NewSource(int64(dist) + 1))
		sys, err := NewLinear(dataset.Objects(dist, 150, 3, rng), dataset.UNQueries(60, 3, 5, false, rng))
		if err != nil {
			t.Fatal(err)
		}
		checkHitOracle(t, rng, sys, 60, uniformStrategy(rng, 3))
	}

	t.Run("ties", func(t *testing.T) {
		// Small integers keep every score exact, so many queries tie at the
		// k-th score and the id tie-break decides the hit.
		rng := rand.New(rand.NewSource(3))
		objects := make([]Vector, 60)
		for i := range objects {
			objects[i] = Vector{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
		}
		queries := make([]Query, 40)
		for j := range queries {
			queries[j] = Query{ID: j, K: 1 + rng.Intn(4),
				Point: Vector{float64(1 + rng.Intn(3)), float64(1 + rng.Intn(3)), float64(1 + rng.Intn(3))}}
		}
		sys, err := NewLinear(objects, queries)
		if err != nil {
			t.Fatal(err)
		}
		checkHitOracle(t, rng, sys, 80, func() Vector {
			return Vector{float64(rng.Intn(5) - 3), float64(rng.Intn(5) - 3), float64(rng.Intn(5) - 3)}
		})
	})

	t.Run("nonlinear", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		space, err := NewExprSpace("w1 * a^2 + w2 * (a * b) + w3 * b", []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		objects := make([]Vector, 80)
		for i := range objects {
			objects[i] = Vector{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()}
		}
		queries := make([]Query, 40)
		for j := range queries {
			queries[j] = Query{ID: j, K: 1 + rng.Intn(3),
				Point: Vector{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}}
		}
		sys, err := New(space, objects, queries)
		if err != nil {
			t.Fatal(err)
		}
		checkHitOracle(t, rng, sys, 60, func() Vector {
			return Vector{0.15 * (2*rng.Float64() - 1.3), 0.15 * (2*rng.Float64() - 1.3)}
		})
	})

	t.Run("max-k-grows", func(t *testing.T) {
		// Thirty k = 1 queries leave a skyband of 21 of the 200 objects,
		// too narrow once a query asks for k = 20: rows drawn from the old
		// skyband count hits the new query's top 20 does not give. Only some
		// targets show it, so every object is checked.
		rng := rand.New(rand.NewSource(9))
		sys, err := NewLinear(dataset.Objects(dataset.Independent, 200, 3, rng), dataset.UNQueries(30, 3, 1, false, rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.AddQuery(Query{ID: 900, K: 20, Point: Vector{0.3, 0.3, 0.4}}); err != nil {
			t.Fatal(err)
		}
		w := sys.Workload()
		for target := 0; target < w.NumObjects(); target++ {
			want, err := w.HitsExact(w.Attrs(target), target)
			if err != nil {
				t.Fatal(err)
			}
			if h, err := sys.Hits(target); err != nil || h != want {
				t.Fatalf("target %d: Hits %d (%v), HitsExact %d", target, h, err, want)
			}
		}
		checkHitOracle(t, rng, sys, 20, uniformStrategy(rng, 3))
	})

	t.Run("huge-k", func(t *testing.T) {
		// A K past the object count puts every object in the query's top-k.
		// MaxK+Slack must not overflow the skyband depth, and no row may
		// size a buffer by K.
		rng := rand.New(rand.NewSource(6))
		sys, err := NewLinear(dataset.Objects(dataset.Independent, 80, 3, rng), dataset.UNQueries(30, 3, 3, false, rng))
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range []int{math.MaxInt32, math.MaxInt} {
			if _, err := sys.AddQuery(Query{ID: 900 + i, K: k, Point: Vector{0.3, 0.3, 0.4}}); err != nil {
				t.Fatal(err)
			}
			if got, want := len(sys.Index().Candidates()), sys.Workload().LiveObjects(); got != want {
				t.Fatalf("K=%d: %d candidates, want every one of the %d objects", k, got, want)
			}
			checkHitOracle(t, rng, sys, 20, uniformStrategy(rng, 3))
		}
		if err := sys.Commit(1, Vector{-0.2, -0.1, -0.15}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.AddObject(Vector{0.9, 0.95, 0.9}); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveObject(2); err != nil {
			t.Fatal(err)
		}
		if got, want := len(sys.Index().Candidates()), sys.Workload().LiveObjects(); got != want {
			t.Fatalf("after writes: %d candidates, want every one of the %d objects", got, want)
		}
		checkHitOracle(t, rng, sys, 20, uniformStrategy(rng, 3))
	})

	t.Run("mutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		sys := stressFixture(t, 77)
		point := func() Vector {
			return Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}
		}
		mutations := []struct {
			name string
			do   func() error
		}{
			{"commit", func() error { return sys.Commit(1, Vector{-0.2, -0.1, -0.15}) }},
			{"add-object", func() error { _, err := sys.AddObject(Vector{0.1, 0.2, 0.1}); return err }},
			{"remove-object", func() error { return sys.RemoveObject(2) }},
			{"add-query", func() error { _, err := sys.AddQuery(Query{ID: 900, K: 2, Point: point()}); return err }},
			{"remove-query", func() error { return sys.RemoveQuery(3) }},
			{"apply-batch", func() error {
				_, err := sys.ApplyBatch([]Mutation{
					{Commit: &CommitMutation{Target: 0, Strategy: Vector{-0.1, 0, -0.1}}},
					{AddObject: &AddObjectMutation{Attrs: Vector{0.3, 0.05, 0.2}}},
					{AddQuery: &AddQueryMutation{Query: Query{ID: 901, K: 1, Point: point()}}},
					{RemoveQuery: &RemoveQueryMutation{Index: 5}},
				})
				return err
			}},
		}
		// changed and kept count the rows of queries live on both sides of a
		// mutation that it replaced and that it left as they were.
		changed, kept := 0, 0
		checkHitOracle(t, rng, sys, 20, uniformStrategy(rng, 3))
		for _, m := range mutations {
			before := sys.Index()
			if err := m.do(); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			t.Logf("after %s", m.name)
			after := sys.Index()
			for j := 0; j < before.Workload().NumQueries(); j++ {
				if before.Row(j) == nil || after.Row(j) == nil {
					continue
				}
				if sameRow(before.Row(j), after.Row(j)) {
					kept++
				} else {
					changed++
				}
			}
			checkHitOracle(t, rng, sys, 20, uniformStrategy(rng, 3))
		}
		if changed == 0 || kept == 0 {
			t.Errorf("the mutations changed %d rows and kept %d; the oracle did not reach both kinds", changed, kept)
		}
	})
}
