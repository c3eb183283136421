// Package integration_test exercises the full pipeline across modules:
// workload generation → subdomain indexing → improvement queries → brute
// force verification, plus update storms and cross-scheme agreement. These
// tests intentionally cut across package boundaries the unit tests respect.
package integration_test

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/baseline"
	"iq/internal/core"
	"iq/internal/dataset"
	"iq/internal/rta"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// checkPartition runs Algorithm 1 over the index's current state and checks
// the grouping invariant of the partition it builds.
func checkPartition(idx *subdomain.Index) error {
	return subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{}).CheckInvariant()
}

// TestPipelineAllDistributions runs Min-Cost and Max-Hit IQs over every
// synthetic distribution and the real-world stand-ins, verifying each
// reported result against brute-force re-evaluation.
func TestPipelineAllDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type workload struct {
		name string
		objs []vec.Vector
	}
	workloads := []workload{
		{"IN", dataset.Objects(dataset.Independent, 300, 3, rng)},
		{"CO", dataset.Objects(dataset.Correlated, 300, 3, rng)},
		{"AC", dataset.Objects(dataset.AntiCorrelated, 300, 3, rng)},
		{"VEHICLE", dataset.VehicleObjects(300, rng)},
		{"HOUSE", dataset.HouseObjects(300, rng)},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			d := len(wl.objs[0])
			queries := dataset.UNQueries(80, d, 6, true, rng)
			w, err := topk.NewWorkload(topk.LinearSpace{D: d}, wl.objs, queries)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPartition(idx); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				target := rng.Intn(w.NumObjects())
				res, err := core.MinCostIQCtx(context.Background(), idx, core.MinCostRequest{Target: target, Tau: 10, Cost: core.L2Cost{}})
				if err != nil {
					t.Fatalf("%s trial %d: %v", wl.name, trial, err)
				}
				truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
				if err != nil {
					t.Fatal(err)
				}
				if truth != res.Hits || truth < 10 {
					t.Fatalf("%s trial %d: reported %d, true %d", wl.name, trial, res.Hits, truth)
				}
				mh, err := core.MaxHitIQCtx(context.Background(), idx, core.MaxHitRequest{Target: target, Budget: 0.4, Cost: core.L2Cost{}})
				if err != nil {
					t.Fatal(err)
				}
				truth, _ = w.HitsExact(vec.Add(w.Attrs(target), mh.Strategy), target)
				if truth != mh.Hits {
					t.Fatalf("%s max-hit trial %d: reported %d, true %d", wl.name, trial, mh.Hits, truth)
				}
			}
		})
	}
}

// TestUpdateStormKeepsAnswersExact interleaves every update operation with
// improvement queries and checks each answer against brute force.
func TestUpdateStormKeepsAnswersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := dataset.Objects(dataset.Independent, 120, 3, rng)
	queries := dataset.UNQueries(60, 3, 4, true, rng)
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	randPoint := func() vec.Vector {
		p := make(vec.Vector, 3)
		for i := range p {
			p[i] = 0.05 + 0.95*rng.Float64()
		}
		return p
	}
	for step := 0; step < 25; step++ {
		switch rng.Intn(5) {
		case 0:
			if _, err := idx.AddObjectCtx(context.Background(), randPoint()); err != nil {
				t.Fatal(err)
			}
		case 1:
			i := rng.Intn(w.NumObjects())
			if !w.IsRemoved(i) && w.LiveObjects() > 30 {
				if err := idx.RemoveObjectCtx(context.Background(), i); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if _, err := idx.AddQueryCtx(context.Background(), topk.Query{ID: 500 + step, K: 1 + rng.Intn(4), Point: randPoint()}); err != nil {
				t.Fatal(err)
			}
		case 3:
			j := rng.Intn(w.NumQueries())
			if !w.IsQueryRemoved(j) {
				if err := idx.RemoveQueryCtx(context.Background(), j); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			i := rng.Intn(w.NumObjects())
			if !w.IsRemoved(i) {
				if err := idx.UpdateObjectCtx(context.Background(), i, randPoint()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := checkPartition(idx); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Issue an IQ against a random live target and verify.
		target := rng.Intn(w.NumObjects())
		if w.IsRemoved(target) {
			continue
		}
		res, err := core.MaxHitIQCtx(context.Background(), idx, core.MaxHitRequest{Target: target, Budget: 0.3, Cost: core.L2Cost{}})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
		if err != nil {
			t.Fatal(err)
		}
		if truth != res.Hits {
			t.Fatalf("step %d: reported %d, true %d", step, res.Hits, truth)
		}
	}
}

// TestSchemesAgreeOnStrategySearch verifies Efficient-IQ, RTA-IQ and a
// brute-force-countered ratio search find strategies of equal quality on the
// same instances (the evaluators are all exact; only their speed differs).
func TestSchemesAgreeOnStrategySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := dataset.Objects(dataset.Independent, 200, 3, rng)
	queries := dataset.UNQueries(70, 3, 5, true, rng)
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rtaCounter, err := rta.New(w)
	if err != nil {
		t.Fatal(err)
	}
	brute := baseline.BruteForce{W: w}
	for trial := 0; trial < 5; trial++ {
		target := rng.Intn(w.NumObjects())
		tau := 6 + rng.Intn(8)
		eff, err := core.MinCostIQCtx(context.Background(), idx, core.MinCostRequest{Target: target, Tau: tau, Cost: core.L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		req := baseline.Request{W: w, Target: target, Cost: core.L2Cost{}, Tau: tau}
		viaRTA, err := baseline.RatioSearchMinCost(req, rtaCounter)
		if err != nil {
			t.Fatal(err)
		}
		viaBrute, err := baseline.RatioSearchMinCost(req, brute)
		if err != nil {
			t.Fatal(err)
		}
		// RTA and brute run literally the same search: identical output.
		if !vec.ApproxEqual(viaRTA.Strategy, viaBrute.Strategy, 1e-9) {
			t.Fatalf("trial %d: RTA and brute searches diverged", trial)
		}
		// Efficient-IQ differs in implementation details; its quality must
		// be comparable (within 50% cost at the same or better hits).
		if eff.Hits < tau || viaRTA.Hits < tau {
			t.Fatalf("trial %d: goal missed (%d, %d)", trial, eff.Hits, viaRTA.Hits)
		}
		if eff.Cost > viaRTA.Cost*1.5+1e-9 && eff.Cost-viaRTA.Cost > 0.05 {
			t.Errorf("trial %d: Efficient-IQ cost %v far above RTA-IQ %v", trial, eff.Cost, viaRTA.Cost)
		}
	}
}

// TestNonLinearPipelineWithPolySpace runs the full pipeline over the
// polynomial utility spaces used in Figure 13.
func TestNonLinearPipelineWithPolySpace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for dim := 1; dim <= 5; dim++ {
		space, err := dataset.PolynomialSpace(dim, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		objs := dataset.Objects(dataset.Independent, 100, dim, rng)
		for _, o := range objs {
			for i := range o {
				o[i] = 0.05 + 0.95*o[i]
			}
		}
		queries := dataset.UNQueries(40, space.QueryDim(), 4, false, rng)
		w, err := topk.NewWorkload(space, objs, queries)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		target := rng.Intn(100)
		res, err := core.MinCostIQCtx(context.Background(), idx, core.MinCostRequest{Target: target, Tau: 6, Cost: core.L2Cost{}})
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
		if err != nil {
			t.Fatal(err)
		}
		if truth != res.Hits || truth < 6 {
			t.Fatalf("dim %d: reported %d, true %d", dim, res.Hits, truth)
		}
	}
}

// TestCommitSequenceConvergesMarket commits improvements for several objects
// in sequence; every commit must leave the index consistent and the
// committed object at (or above) its promised hit count.
func TestCommitSequenceConvergesMarket(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := dataset.Objects(dataset.Correlated, 150, 3, rng)
	queries := dataset.CLQueries(60, 3, 5, 3, true, rng)
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		target := rng.Intn(w.NumObjects())
		res, err := core.MinCostIQCtx(context.Background(), idx, core.MinCostRequest{Target: target, Tau: 8, Cost: core.L2Cost{}})
		if err != nil {
			continue // a prior commit may have made this target's goal moot
		}
		if err := idx.UpdateObjectCtx(context.Background(), target, vec.Add(w.Attrs(target), res.Strategy)); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
		if err := checkPartition(idx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		after, err := w.HitsExact(w.Attrs(target), target)
		if err != nil {
			t.Fatal(err)
		}
		if after < 8 {
			t.Fatalf("round %d: committed target hits %d < promised 8", round, after)
		}
	}
}
