package core

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Tests for the non-linear path: Algorithm 3/4 over expression-linearised
// spaces (Section 5.2), which exercise solveHitNonLinear's SQP-style loop.

func polyFixture(t *testing.T, rng *rand.Rand, n, m int) *subdomain.Index {
	t.Helper()
	space, err := topk.NewExprSpace("w1 * a^2 + w2 * (a * b) + w3 * b",
		[]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = vec.Vector{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()}
	}
	queries := make([]topk.Query, m)
	for j := range queries {
		pt := make(vec.Vector, 3)
		for i := range pt {
			pt[i] = 0.1 + 0.9*rng.Float64()
		}
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(3), Point: pt}
	}
	w, err := topk.NewWorkload(space, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestMinCostNonLinearSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := polyFixture(t, rng, 60, 40)
	w := idx.Workload()
	for trial := 0; trial < 5; trial++ {
		target := rng.Intn(w.NumObjects())
		res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: target, Tau: 8, Cost: L2Cost{}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Hits < 8 {
			t.Fatalf("trial %d: hits=%d", trial, res.Hits)
		}
		truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
		if err != nil {
			t.Fatal(err)
		}
		if truth != res.Hits {
			t.Fatalf("trial %d: reported %d true %d", trial, res.Hits, truth)
		}
	}
}

func TestMaxHitNonLinearSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx := polyFixture(t, rng, 50, 30)
	res, err := MaxHitIQCtx(context.Background(), idx, MaxHitRequest{Target: 3, Budget: 0.4, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 0.4+1e-9 {
		t.Errorf("cost %v over budget", res.Cost)
	}
	if res.Hits < res.BaseHits {
		t.Error("lost hits")
	}
}

func TestNonLinearWithBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := polyFixture(t, rng, 50, 30)
	w := idx.Workload()
	target := 5
	// Attribute 0 frozen: the non-linear solver must respect it.
	bounds := Frozen(2, 0)
	res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: target, Tau: 5, Cost: L2Cost{}, Bounds: bounds})
	if err != nil {
		// Frozen attr may genuinely make the goal unreachable; that is a
		// legitimate outcome, but when it succeeds the bound must hold.
		t.Skipf("goal unreachable under freeze: %v", err)
	}
	if res.Strategy[0] != 0 {
		t.Errorf("frozen attribute moved: %v", res.Strategy)
	}
	truth, _ := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
	if truth != res.Hits {
		t.Errorf("reported %d true %d", res.Hits, truth)
	}
}

func TestNonLinearEmbedFailureSurfaces(t *testing.T) {
	// sqrt embedding: pushing an attribute negative makes Embed fail; the
	// solver must route around it (one-sided gradients) or report an
	// error, never panic.
	space, err := topk.NewExprSpace("w1 * sqrt(a) + w2 * b", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	attrs := make([]vec.Vector, 30)
	for i := range attrs {
		attrs[i] = vec.Vector{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()}
	}
	queries := make([]topk.Query, 20)
	for j := range queries {
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(2),
			Point: vec.Vector{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()}}
	}
	w, err := topk.NewWorkload(space, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bounds keep attributes in the sqrt domain.
	lo := vec.Vector{-0.25, -0.25}
	hi := vec.Vector{1, 1}
	res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: 0, Tau: 4, Cost: L2Cost{},
		Bounds: &Bounds{Lo: lo, Hi: hi}})
	if err != nil {
		t.Skipf("unreachable under domain bounds: %v", err)
	}
	if res.Hits < 4 {
		t.Errorf("hits=%d", res.Hits)
	}
}
