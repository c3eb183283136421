package iq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"iq/internal/dataset"
	"iq/internal/vec"
)

func smallSystem(t *testing.T, rng *rand.Rand, n, m int) *System {
	t.Helper()
	objs := dataset.Objects(dataset.Independent, n, 3, rng)
	queries := dataset.UNQueries(m, 3, 5, false, rng)
	sys, err := NewLinear(objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEndToEndMinCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := smallSystem(t, rng, 120, 60)
	res, err := sys.MinCost(MinCostRequest{Target: 7, Tau: 10, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits < 10 {
		t.Fatalf("hits=%d", res.Hits)
	}
	// EvaluateStrategy agrees with the result.
	h, err := sys.EvaluateStrategy(7, res.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if h != res.Hits {
		t.Fatalf("EvaluateStrategy %d vs result %d", h, res.Hits)
	}
}

func TestEndToEndMaxHit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys := smallSystem(t, rng, 120, 60)
	res, err := sys.MaxHit(MaxHitRequest{Target: 3, Budget: 0.5, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 0.5+1e-9 {
		t.Fatalf("cost %v over budget", res.Cost)
	}
	if res.Hits < res.BaseHits {
		t.Fatal("lost hits")
	}
}

func TestCommitChangesFutureQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := smallSystem(t, rng, 80, 40)
	res, err := sys.MinCost(MinCostRequest{Target: 2, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := sys.Hits(2)
	if err := sys.CommitCtx(context.Background(), 2, res.Strategy); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Hits(2)
	if err != nil {
		t.Fatal(err)
	}
	if after < 8 || after < before {
		t.Fatalf("hits after commit %d (before %d)", after, before)
	}
	// Attributes changed.
	attrs := sys.Attrs(2)
	if len(attrs) != 3 {
		t.Fatal("attrs dim")
	}
}

func TestSystemUpdatesAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sys := smallSystem(t, rng, 60, 30)
	id, err := sys.AddObjectCtx(context.Background(), Vector{0.2, 0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if id != 60 {
		t.Fatalf("id=%d", id)
	}
	qid, err := sys.AddQueryCtx(context.Background(), Query{ID: 999, K: 2, Point: Vector{0.5, 0.3, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveQueryCtx(context.Background(), qid); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveObjectCtx(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	st := sys.IndexStats()
	if st.Queries == 0 || st.SizeBytes <= 0 {
		t.Errorf("stats %+v", st)
	}
	if sys.NumObjects() != 61 || sys.NumQueries() != 31 {
		t.Errorf("counts %d %d", sys.NumObjects(), sys.NumQueries())
	}
}

func TestMultiTargetFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := smallSystem(t, rng, 80, 40)
	specs := []TargetSpec{
		{Target: 0, Cost: L2Cost{}},
		{Target: 1, Cost: L2Cost{}},
	}
	res, err := sys.MinCostMultiCtx(context.Background(), specs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHits < 10 {
		t.Fatalf("union hits %d", res.TotalHits)
	}
	mh, err := sys.MaxHitMultiCtx(context.Background(), specs, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if mh.TotalCost > 0.8+1e-9 {
		t.Fatalf("over budget: %v", mh.TotalCost)
	}
}

func TestExhaustiveFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sys := smallSystem(t, rng, 20, 8)
	res, err := sys.MinCostExhaustiveCtx(context.Background(), MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits < 3 {
		t.Fatalf("hits=%d", res.Hits)
	}
	mh, err := sys.MaxHitExhaustiveCtx(context.Background(), MaxHitRequest{Target: 0, Budget: 0.4, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if mh.Cost > 0.4+1e-9 {
		t.Fatalf("over budget: %v", mh.Cost)
	}
}

func TestNonLinearFacade(t *testing.T) {
	space, err := NewExprSpace("w1 * price + w2 * (capacity / mpg)",
		[]string{"price", "mpg", "capacity"})
	if err != nil {
		t.Fatal(err)
	}
	objs := []Vector{
		{0.5, 0.4, 0.3},
		{0.7, 0.6, 0.2},
		{0.3, 0.8, 0.9},
	}
	queries := []Query{
		{ID: 0, K: 1, Point: Vector{0.5, 0.5}},
		{ID: 1, K: 2, Point: Vector{0.9, 0.1}},
	}
	sys, err := NewWithOptionsCtx(context.Background(), space, objs, queries, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.MinCost(MinCostRequest{Target: 1, Tau: 2, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits < 2 {
		t.Fatalf("hits=%d", res.Hits)
	}
}

func TestNewLinearValidation(t *testing.T) {
	if _, err := NewLinear(nil, nil); err == nil {
		t.Error("empty object set accepted")
	}
}

func TestUnreachableGoal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sys := smallSystem(t, rng, 30, 10)
	if _, err := sys.MinCost(MinCostRequest{Target: 0, Tau: 99, Cost: L2Cost{}}); !errors.Is(err, ErrGoalUnreachable) {
		t.Errorf("err=%v", err)
	}
}

// TestSolveBatchParallelMatchesSequential: the batch worker pool answers in
// item order with the same results and per-item errors as one MinCost or
// MaxHit call per item.
func TestSolveBatchParallelMatchesSequential(t *testing.T) {
	sys := smallSystem(t, rand.New(rand.NewSource(3)), 80, 60)
	items := make([]BatchItem, 9)
	for i := range items {
		if i%3 == 2 {
			items[i] = BatchItem{MaxHit: &MaxHitRequest{Target: i % 4, Budget: 0.3, Cost: L2Cost{}}}
		} else {
			items[i] = BatchItem{MinCost: &MinCostRequest{Target: i % 4, Tau: 1 + i%3, Cost: L2Cost{}}}
		}
	}
	items = append(items, BatchItem{}) // sets neither solve
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par := sys.SolveBatchCtx(context.Background(), items)
	for i, it := range items {
		var want *Result
		var err error
		switch {
		case it.MinCost != nil:
			want, err = sys.MinCost(*it.MinCost)
		case it.MaxHit != nil:
			want, err = sys.MaxHit(*it.MaxHit)
		default:
			if par[i].Err == nil {
				t.Fatal("batch item setting neither solve was accepted")
			}
			continue
		}
		if fmt.Sprint(err) != fmt.Sprint(par[i].Err) {
			t.Fatalf("item %d: single err=%v batch err=%v", i, err, par[i].Err)
		}
		if err == nil && (!vec.Equal(want.Strategy, par[i].Result.Strategy) || want.Hits != par[i].Result.Hits) {
			t.Fatalf("item %d: single %v/%d != batch %v/%d", i,
				want.Strategy, want.Hits, par[i].Result.Strategy, par[i].Result.Hits)
		}
	}
}

// TestRejectsNonFinite: NaN and Inf must be refused wherever numbers enter
// the engine — attributes, embedded coefficients, query points, strategies,
// and attributes a commit overflows. Every refused write leaves the epoch
// where it was, and afterwards Hits still agrees with Evaluate.
func TestRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	queries := []Query{
		{ID: 0, K: 1, Point: Vector{0.5, 0.5}},
		{ID: 1, K: 2, Point: Vector{1, 0}},
		{ID: 2, K: 2, Point: Vector{0, 1}},
	}
	objs := []Vector{{0.9, 0.9}, {0.2, 0.3}, {0.4, 0.1}}
	if _, err := NewLinear([]Vector{{0.2, nan}, {0.3, 0.4}}, queries); err == nil {
		t.Error("NaN object accepted at construction")
	}
	if _, err := NewLinear(objs, []Query{{K: 1, Point: Vector{inf, 0.5}}}); err == nil {
		t.Error("Inf query point accepted at construction")
	}
	space, err := NewExprSpace("w1 * price + w2 * (capacity / mpg)", []string{"price", "mpg", "capacity"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptionsCtx(context.Background(), space, []Vector{{0.5, 0, 0.3}}, nil, IndexOptions{}); err == nil {
		t.Error("object embedding to an Inf coefficient accepted")
	}

	sys, err := NewLinear(objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	// One commit of [1e308, 0] is finite; the second overflows to +Inf.
	if err := sys.CommitCtx(context.Background(), 0, Vector{1e308, 0}); err != nil {
		t.Fatal(err)
	}
	epoch := sys.Epoch()
	rejected := map[string]error{
		"overflowing commit": sys.CommitCtx(context.Background(), 0, Vector{1e308, 0}),
		"NaN strategy":       sys.CommitCtx(context.Background(), 1, Vector{nan, 0}),
		"Inf object":         func() error { _, err := sys.AddObjectCtx(context.Background(), Vector{inf, 0.5}); return err }(),
		"NaN query": func() error {
			_, err := sys.AddQueryCtx(context.Background(), Query{K: 1, Point: Vector{nan, 0.5}})
			return err
		}(),
		"NaN batch commit": func() error {
			_, err := sys.ApplyBatchCtx(context.Background(), []Mutation{{Commit: &CommitMutation{Target: 2, Strategy: Vector{0, nan}}}})
			return err
		}(),
		"NaN what-if": func() error { _, err := sys.EvaluateStrategy(1, Vector{nan, 0}); return err }(),
		"NaN top-k": func() error {
			_, err := sys.EvaluateCtx(context.Background(), Query{K: 1, Point: Vector{nan, 1}})
			return err
		}(),
	}
	for name, err := range rejected {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if got := sys.Epoch(); got != epoch {
		t.Fatalf("rejected writes moved the epoch %d -> %d", epoch, got)
	}
	for target := 0; target < sys.NumObjects(); target++ {
		hits, err := sys.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, q := range queries {
			ids, err := sys.EvaluateCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if id == target {
					want++
				}
			}
		}
		if hits != want {
			t.Errorf("target %d: Hits=%d but %d Evaluate results contain it", target, hits, want)
		}
	}
}
