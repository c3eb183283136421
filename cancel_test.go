package iq

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"iq/internal/core"
	"iq/internal/vec"
)

// timeZero is a deadline that has always already passed.
func timeZero() time.Time { return time.Unix(0, 1) }

// cancelFixture builds the acceptance-scale workload: ≥2k queries, so one
// uncancelled greedy round alone is hundreds of per-query solves. The
// object count stays small and the intersection cap bounds index build time;
// the solver cost this test cares about scales with the query count.
func cancelFixture(t *testing.T) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	const n, m, d = 40, 2048, 3
	objects := make([]Vector, n)
	for i := range objects {
		objects[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	queries := make([]Query, m)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(3),
			Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
	}
	sys, err := NewWithOptions(LinearSpace{D: d}, objects, queries, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCancelMidSolveLeavesSystemUntouched is the deadline-aware-solving
// acceptance test: a MinCost and a MaxHit solve over a 2048-query workload,
// cancelled mid-run through the fault-injection hook, must return
// iq.ErrCanceled having done only a bounded prefix of the work — asserted by
// probe counting, not wall clocks — and must leave the System's published
// epoch and the target's attributes untouched.
func TestCancelMidSolveLeavesSystemUntouched(t *testing.T) {
	sys := cancelFixture(t)
	epochBefore := sys.Epoch()
	attrsBefore := sys.Attrs(0)

	// Probes before cancellation. Uncancelled, the first round solves 574
	// probes of its 2048 unhit rows for Min-Cost and 552 for Max-Hit.
	const cancelAt = 40
	for _, tc := range []struct {
		name  string
		solve func(ctx context.Context) (*Result, error)
	}{
		{"mincost", func(ctx context.Context) (*Result, error) {
			return sys.MinCostCtx(ctx, MinCostRequest{Target: 0, Tau: 200, Cost: L2Cost{}})
		}},
		{"maxhit", func(ctx context.Context) (*Result, error) {
			return sys.MaxHitCtx(ctx, MaxHitRequest{Target: 0, Budget: 1, Cost: L2Cost{}})
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		// late counts the probes that start after cancel() has returned.
		var probes, late atomic.Int64
		var cancelled atomic.Bool
		restore := core.SetIterationHook(func(op string, n int) {
			if op != "probe" {
				return
			}
			if cancelled.Load() {
				late.Add(1)
			}
			if probes.Add(1) == cancelAt {
				cancel()
				cancelled.Store(true)
			}
		})
		res, err := tc.solve(ctx)
		restore()
		cancel()

		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err=%v, want ErrCanceled wrapping context.Canceled", tc.name, err)
		}
		if res != nil {
			t.Fatalf("%s: partial result %+v not discarded", tc.name, res)
		}
		// Early-exit bound: a solve runs its probes on its own goroutine and
		// checks ctx before each, so no probe starts after the one whose hook
		// cancelled; a solve that ignored cancellation would run hundreds
		// more in the same round.
		if got := late.Load(); got != 0 {
			t.Fatalf("%s: %d probes started after cancel() returned, want 0", tc.name, got)
		}
	}

	if got := sys.Epoch(); got != epochBefore {
		t.Fatalf("epoch moved %d → %d across cancelled solves", epochBefore, got)
	}
	if !vec.Equal(sys.Attrs(0), attrsBefore) {
		t.Fatalf("target attributes changed by a cancelled solve")
	}
	// The published state must still answer fresh work: a small solve on the
	// same System succeeds after the cancellations.
	res, err := sys.MinCost(MinCostRequest{Target: 0, Tau: res0Tau(sys), Cost: L2Cost{}})
	if err != nil {
		t.Fatalf("post-cancel solve: %v", err)
	}
	if res.Hits < res0Tau(sys) {
		t.Fatalf("post-cancel solve reached %d hits, want ≥ %d", res.Hits, res0Tau(sys))
	}
}

// res0Tau picks a cheap post-cancellation goal: one hit above the target's
// current count, so the verification solve costs a single greedy round.
func res0Tau(sys *System) int {
	h, _ := sys.Hits(0)
	return h + 1
}

// TestDeadlineExceededThroughPublicAPI drives an already-expired deadline
// through every ctx-accepting public entry point.
func TestDeadlineExceededThroughPublicAPI(t *testing.T) {
	sys := stressFixture(t, 91)
	ctx, cancel := context.WithDeadline(context.Background(), timeZero())
	defer cancel()

	if _, err := sys.MinCostCtx(ctx, MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("MinCostCtx: %v", err)
	}
	if _, err := sys.MaxHitCtx(ctx, MaxHitRequest{Target: 0, Budget: 0.3, Cost: L2Cost{}}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("MaxHitCtx: %v", err)
	}
	if _, err := sys.EvaluateCtx(ctx, Query{K: 2, Point: Vector{0.4, 0.3, 0.3}}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("EvaluateCtx: %v", err)
	}
	if _, err := sys.EvaluateStrategyCtx(ctx, 0, Vector{-0.1, -0.1, -0.1}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("EvaluateStrategyCtx: %v", err)
	}
	if _, err := sys.MinCostMultiCtx(ctx, []TargetSpec{{Target: 0, Cost: L2Cost{}}}, 3); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("MinCostMultiCtx: %v", err)
	}
	if _, err := sys.MinCostExhaustiveCtx(ctx, MinCostRequest{Target: 0, Tau: 2, Cost: L2Cost{}}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("MinCostExhaustiveCtx: %v", err)
	}

	// A live context changes nothing about the answers.
	live := context.Background()
	got, err := sys.EvaluateStrategyCtx(live, 0, Vector{-0.1, -0.1, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.EvaluateStrategy(0, Vector{-0.1, -0.1, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ctx variant answered %d, plain answered %d", got, want)
	}
}
