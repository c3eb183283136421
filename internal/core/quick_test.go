package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Property-based tests over the improvement-query contracts.

// Property: for random workloads and goals, MinCostIQCtx either returns a
// strategy whose true hit count meets τ, or reports ErrGoalUnreachable.
func TestQuickMinCostContract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := &quick.Config{MaxCount: 15, Rand: rng}
	f := func(seed int64, tauRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(40)
		m := 15 + r.Intn(25)
		attrs := make([]vec.Vector, n)
		for i := range attrs {
			attrs[i] = vec.Vector{r.Float64(), r.Float64(), r.Float64()}
		}
		queries := make([]topk.Query, m)
		for j := range queries {
			pt := vec.Vector{0.05 + 0.95*r.Float64(), 0.05 + 0.95*r.Float64(), 0.05 + 0.95*r.Float64()}
			queries[j] = topk.Query{ID: j, K: 1 + r.Intn(3), Point: pt}
		}
		w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, attrs, queries)
		if err != nil {
			return false
		}
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			return false
		}
		target := r.Intn(n)
		tau := int(tauRaw) % (m + 1)
		res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}})
		if err != nil {
			return errors.Is(err, ErrGoalUnreachable)
		}
		truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
		if err != nil {
			return false
		}
		return truth == res.Hits && truth >= tau && res.Cost >= 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MaxHitIQCtx never exceeds its budget and never loses hits.
func TestQuickMaxHitContract(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := &quick.Config{MaxCount: 15, Rand: rng}
	f := func(seed int64, budgetRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(40)
		m := 15 + r.Intn(25)
		attrs := make([]vec.Vector, n)
		for i := range attrs {
			attrs[i] = vec.Vector{r.Float64(), r.Float64(), r.Float64()}
		}
		queries := make([]topk.Query, m)
		for j := range queries {
			pt := vec.Vector{0.05 + 0.95*r.Float64(), 0.05 + 0.95*r.Float64(), 0.05 + 0.95*r.Float64()}
			queries[j] = topk.Query{ID: j, K: 1 + r.Intn(3), Point: pt}
		}
		w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, attrs, queries)
		if err != nil {
			return false
		}
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			return false
		}
		target := r.Intn(n)
		budget := float64(budgetRaw) / 128.0 // [0, ~2)
		res, err := MaxHitIQCtx(context.Background(), idx, MaxHitRequest{Target: target, Budget: budget, Cost: L2Cost{}})
		if err != nil {
			return false
		}
		if res.Cost > budget+1e-9 {
			return false
		}
		if res.Hits < res.BaseHits {
			return false
		}
		truth, err := w.HitsExact(vec.Add(w.Attrs(target), res.Strategy), target)
		if err != nil {
			return false
		}
		return truth == res.Hits
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: strategies returned under bounds always satisfy the bounds.
func TestQuickBoundsAlwaysRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	idx := fixture(t, rng, 60, 40, 3, 3)
	cfg := &quick.Config{MaxCount: 20, Rand: rng}
	f := func(loRaw, hiRaw [3]uint8, tauRaw uint8) bool {
		lo := make(vec.Vector, 3)
		hi := make(vec.Vector, 3)
		for i := 0; i < 3; i++ {
			lo[i] = -float64(loRaw[i]) / 64
			hi[i] = float64(hiRaw[i]) / 64
		}
		bounds := &Bounds{Lo: lo, Hi: hi}
		tau := 1 + int(tauRaw)%10
		res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: 3, Tau: tau, Cost: L2Cost{}, Bounds: bounds})
		if err != nil {
			return errors.Is(err, ErrGoalUnreachable)
		}
		return bounds.Contains(res.Strategy)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
