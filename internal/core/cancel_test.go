package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// time0 is a deadline that has always already passed.
func time0() time.Time { return time.Unix(0, 1) }

// TestCtxErrTranslation pins the double-wrapping contract: the translated
// error matches both the engine sentinel and the underlying context error.
func TestCtxErrTranslation(t *testing.T) {
	live := context.Background()
	if err := CtxErr(live); err != nil {
		t.Fatalf("live context: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	err := CtxErr(canceled)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled translation: %v", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("canceled must not match deadline: %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time0())
	defer cancel2()
	err = CtxErr(expired)
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline translation: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline must not match canceled: %v", err)
	}
}

// TestPreCanceledContext checks every ctx-taking solver refuses to start
// against an already-failed context.
func TestPreCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := fixture(t, rng, 40, 30, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if res, err := MinCostIQCtx(ctx, idx, MinCostRequest{Target: 0, Tau: 5, Cost: L2Cost{}}); !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("mincost: res=%v err=%v", res, err)
	}
	if res, err := MaxHitIQCtx(ctx, idx, MaxHitRequest{Target: 0, Budget: 0.4, Cost: L2Cost{}}); !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("maxhit: res=%v err=%v", res, err)
	}
	specs := []TargetSpec{{Target: 0, Cost: L2Cost{}}, {Target: 1, Cost: L2Cost{}}}
	if res, err := CombinatorialMinCostIQCtx(ctx, idx, specs, 5); !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("mincost-multi: res=%v err=%v", res, err)
	}
	if res, err := CombinatorialMaxHitIQCtx(ctx, idx, specs, 0.4); !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("maxhit-multi: res=%v err=%v", res, err)
	}
	if res, err := ExhaustiveMinCostCtx(ctx, idx, MinCostRequest{Target: 0, Tau: 2, Cost: L2Cost{}}); !errors.Is(err, ErrCanceled) || res != nil {
		t.Errorf("exhaustive mincost: res=%v err=%v", res, err)
	}
}

// TestDeadlineExceededSurface checks an expired deadline surfaces as
// ErrDeadlineExceeded, not ErrCanceled.
func TestDeadlineExceededSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	idx := fixture(t, rng, 40, 30, 3, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time0())
	defer cancel()
	_, err := MinCostIQCtx(ctx, idx, MinCostRequest{Target: 0, Tau: 5, Cost: L2Cost{}})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v", err)
	}
}

// TestCancelAtIteration cancels via the fault-injection hook at the top of
// greedy round 2 and asserts the solver never reaches round 3 — the
// deterministic, wall-clock-free statement of "stops promptly".
func TestCancelAtIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	idx := fixture(t, rng, 60, 40, 3, 3)
	for _, op := range []string{"mincost", "maxhit"} {
		ctx, cancel := context.WithCancel(context.Background())
		var maxIter atomic.Int64
		restore := SetIterationHook(func(gotOp string, iter int) {
			if gotOp != op {
				return
			}
			if int64(iter) > maxIter.Load() {
				maxIter.Store(int64(iter))
			}
			if iter == 2 {
				cancel()
			}
		})
		var err error
		var res *Result
		if op == "mincost" {
			res, err = MinCostIQCtx(ctx, idx, MinCostRequest{Target: 0, Tau: 25, Cost: L2Cost{}})
		} else {
			res, err = MaxHitIQCtx(ctx, idx, MaxHitRequest{Target: 0, Budget: 2, Cost: L2Cost{}})
		}
		restore()
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err=%v", op, err)
		}
		if res != nil {
			t.Fatalf("%s: partial result %+v not discarded", op, res)
		}
		if got := maxIter.Load(); got != 2 {
			t.Fatalf("%s: hook saw max iteration %d, want exactly 2", op, got)
		}
	}
}

// TestCancelMidRound cancels during a greedy round's selection (probe
// granularity). A solve runs its probes one at a time on its own goroutine
// and checks its context before each, so no probe starts after the one
// whose hook cancelled, with L2 and with an expression cost alike; the
// expression cost has no probe bounds, so its rounds solve every unhit row.
// Cancelled inside the last probe a solve's lazy rounds solve, the round it
// serves must fail with ErrCanceled and no Result, although its selection
// needs no further probe and the solve would end with that round.
func TestCancelMidRound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	idx := fixture(t, rng, 60, 50, 3, 3)
	expr, err := NewExprCost("s1^2 + s2^2 + s3^2", 3)
	if err != nil {
		t.Fatal(err)
	}
	mincost := func(cost Cost) func(ctx context.Context) (*Result, error) {
		return func(ctx context.Context) (*Result, error) {
			return MinCostIQCtx(ctx, idx, MinCostRequest{Target: 0, Tau: 30, Cost: cost})
		}
	}
	maxhit := func(ctx context.Context) (*Result, error) {
		return MaxHitIQCtx(ctx, idx, MaxHitRequest{Target: 0, Budget: 0.5, Cost: L2Cost{}})
	}
	cases := []struct {
		name string
		run  func(ctx context.Context) (*Result, error)
		last bool // cancel in the solve's last probe, not its fifth
	}{
		{"fifth/L2", mincost(L2Cost{}), false},
		{"fifth/expr", mincost(expr), false},
		{"last/mincost", mincost(L2Cost{}), true},
		{"last/maxhit", maxhit, true},
	}
	for _, c := range cases {
		at := int64(5)
		if c.last {
			res, err := c.run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			at = int64(res.Stats.Probes)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var probes atomic.Int64
		restore := SetIterationHook(func(op string, n int) {
			if op == "probe" && probes.Add(1) == at {
				cancel()
			}
		})
		res, err := c.run(ctx)
		restore()
		cancel()
		if !errors.Is(err, ErrCanceled) || res != nil {
			t.Fatalf("%s: cancelled in probe %d: res=%v err=%v", c.name, at, res, err)
		}
		if got := probes.Load(); got != at {
			t.Fatalf("%s: %d probes started, want %d: none after the cancelling one", c.name, got, at)
		}
	}
}

// TestCancelMultiMidGenerate cancels inside the combinatorial (target ×
// query) candidate scan.
func TestCancelMultiMidGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	idx := fixture(t, rng, 50, 40, 3, 3)
	specs := []TargetSpec{{Target: 0, Cost: L2Cost{}}, {Target: 1, Cost: L2Cost{}}}
	ctx, cancel := context.WithCancel(context.Background())
	restore := SetIterationHook(func(op string, iter int) {
		if op == "mincost-multi" && iter == 1 {
			cancel()
		}
	})
	res, err := CombinatorialMinCostIQCtx(ctx, idx, specs, 20)
	restore()
	cancel()
	if !errors.Is(err, ErrCanceled) || res != nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestIterationHookRestore checks the restore closure removes the hook.
func TestIterationHookRestore(t *testing.T) {
	var fired atomic.Int64
	restore := SetIterationHook(func(string, int) { fired.Add(1) })
	restore()
	rng := rand.New(rand.NewSource(16))
	idx := fixture(t, rng, 30, 20, 3, 2)
	if _, err := MinCostIQ(idx, MinCostRequest{Target: 0, Tau: 5, Cost: L2Cost{}}); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 0 {
		t.Fatalf("hook fired %d times after restore", fired.Load())
	}
}
