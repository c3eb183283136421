package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iq/internal/lp"
	"iq/internal/vec"
)

func TestL2CostBasics(t *testing.T) {
	c := L2Cost{}
	if c.Of(vec.Vector{3, 4}) != 5 {
		t.Errorf("Of=%v", c.Of(vec.Vector{3, 4}))
	}
	s, err := c.MinToHalfspace(vec.Vector{1, 1}, -2, nil)
	if err != nil || !vec.ApproxEqual(s, vec.Vector{-1, -1}, 1e-9) {
		t.Errorf("s=%v err=%v", s, err)
	}
	// Bounded path.
	b := &Bounds{Lo: vec.Vector{-0.5, -10}, Hi: vec.Vector{10, 10}}
	s, err = c.MinToHalfspace(vec.Vector{1, 1}, -2, b)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] < -0.5-1e-9 {
		t.Errorf("bound violated: %v", s)
	}
}

func TestL1CostBounded(t *testing.T) {
	c := L1Cost{}
	if c.Of(vec.Vector{1, -2}) != 3 {
		t.Errorf("Of=%v", c.Of(vec.Vector{1, -2}))
	}
	// Unbounded puts everything on the strongest coordinate.
	s, err := c.MinToHalfspace(vec.Vector{1, 4}, -8, nil)
	if err != nil || !vec.ApproxEqual(s, vec.Vector{0, -2}, 1e-9) {
		t.Errorf("s=%v err=%v", s, err)
	}
	// Bounded: coordinate 1 can only move to -1, so coordinate 0 fills in.
	b := &Bounds{Lo: vec.Vector{-100, -1}, Hi: vec.Vector{100, 100}}
	s, err = c.MinToHalfspace(vec.Vector{1, 4}, -8, b)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dot(vec.Vector{1, 4}, s) > -8+1e-9 {
		t.Errorf("constraint violated: %v", s)
	}
	if s[1] < -1-1e-9 {
		t.Errorf("bound violated: %v", s)
	}
	// rhs >= 0 short-circuits.
	s, err = c.MinToHalfspace(vec.Vector{1, 1}, 1, b)
	if err != nil || !vec.IsZero(s) {
		t.Errorf("satisfied: %v %v", s, err)
	}
	// Infeasible under bounds.
	tight := &Bounds{Lo: vec.Vector{-0.1, -0.1}, Hi: vec.Vector{0.1, 0.1}}
	if _, err := c.MinToHalfspace(vec.Vector{1, 1}, -10, tight); !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("err=%v", err)
	}
}

// Property: bounded L1 solutions are feasible and within bounds.
func TestQuickL1BoundedFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(nArr [3]float64, rhsRaw float64) bool {
		n := nArr[:]
		for i := range n {
			n[i] = math.Abs(math.Mod(n[i], 2)) + 0.1
		}
		rhs := -math.Abs(math.Mod(rhsRaw, 3))
		b := &Bounds{Lo: vec.Vector{-5, -5, -5}, Hi: vec.Vector{5, 5, 5}}
		s, err := L1Cost{}.MinToHalfspace(n, rhs, b)
		if err != nil {
			return true // infeasible is allowed to error
		}
		if vec.Dot(n, s) > rhs+1e-7 {
			return false
		}
		return b.Contains(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestWeightedL2Bounded(t *testing.T) {
	c := WeightedL2Cost{Alpha: vec.Vector{4, 1}}
	if math.Abs(c.Of(vec.Vector{1, 2})-math.Sqrt(8)) > 1e-12 {
		t.Errorf("Of=%v", c.Of(vec.Vector{1, 2}))
	}
	b := &Bounds{Lo: vec.Vector{-0.2, -10}, Hi: vec.Vector{10, 10}}
	s, err := c.MinToHalfspace(vec.Vector{1, 1}, -2, b)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dot(vec.Vector{1, 1}, s) > -2+1e-7 {
		t.Errorf("constraint violated: %v", s)
	}
	if !b.Contains(s) {
		t.Errorf("bounds violated: %v", s)
	}
	// Expensive coordinate 0 should carry less of the change.
	if math.Abs(s[0]) > math.Abs(s[1]) {
		t.Errorf("weighting ignored: %v", s)
	}
	// Invalid alpha.
	bad := WeightedL2Cost{Alpha: vec.Vector{-1, 1}}
	if _, err := bad.MinToHalfspace(vec.Vector{1, 1}, -1, b); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestNewExprCost(t *testing.T) {
	c, err := NewExprCost("sqrt(s1^2 + 4*s2^2)", 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Of(vec.Vector{3, 0})-3) > 1e-9 {
		t.Errorf("Of=%v", c.Of(vec.Vector{3, 0}))
	}
	if math.Abs(c.Of(vec.Vector{0, 1})-2) > 1e-9 {
		t.Errorf("Of=%v", c.Of(vec.Vector{0, 1}))
	}
	// Unknown variable rejected.
	if _, err := NewExprCost("s1 + bogus", 1); err == nil {
		t.Error("unknown variable accepted")
	}
	// Non-zero at origin rejected.
	if _, err := NewExprCost("s1 + 5", 1); err == nil {
		t.Error("non-zero origin cost accepted")
	}
	// Parse error propagated.
	if _, err := NewExprCost("s1 +", 1); err == nil {
		t.Error("parse error swallowed")
	}
}

func TestExprCostMinToHalfspace(t *testing.T) {
	// Expression equal to the L2 norm must match the closed form.
	c, err := NewExprCost("sqrt(s1^2 + s2^2)", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := vec.Vector{1, 2}
	s, err := c.MinToHalfspace(n, -3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := L2Cost{}.MinToHalfspace(n, -3, nil)
	if c.Of(s) > vec.Norm2(want)*1.01+1e-9 {
		t.Errorf("numeric cost %v much worse than closed form %v", c.Of(s), vec.Norm2(want))
	}
	// Bounded: clamp path.
	b := &Bounds{Lo: vec.Vector{-0.5, -10}, Hi: vec.Vector{0.5, 10}}
	s, err = c.MinToHalfspace(n, -3, b)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Contains(s) || vec.Dot(n, s) > -3+1e-6 {
		t.Errorf("bounded solution invalid: %v", s)
	}
	// Eval error inside the expression yields +Inf cost, never selected.
	weird, err := NewExprCost("sqrt(s1)", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(weird.Of(vec.Vector{-1}), 1) {
		t.Error("eval error should cost +Inf")
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := Frozen(3, 1)
	if b.Lo[1] != 0 || b.Hi[1] != 0 {
		t.Errorf("frozen attr bounds: %v %v", b.Lo, b.Hi)
	}
	if !math.IsInf(b.Lo[0], -1) || !math.IsInf(b.Hi[2], 1) {
		t.Error("free attrs should be unbounded")
	}
	if !b.Contains(vec.Vector{5, 0, -5}) {
		t.Error("Contains false negative")
	}
	if b.Contains(vec.Vector{0, 0.1, 0}) {
		t.Error("Contains false positive")
	}
	var nilBounds *Bounds
	if !nilBounds.Contains(vec.Vector{1, 2}) {
		t.Error("nil bounds should contain everything")
	}
}

func TestMinCostWithExprCost(t *testing.T) {
	// End-to-end: a user-defined cost expression drives Algorithm 3.
	rng := rand.New(rand.NewSource(20))
	idx := fixture(t, rng, 50, 30, 3, 3)
	c, err := NewExprCost("sqrt(s1^2 + s2^2 + 9*s3^2)", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: 0, Tau: 5, Cost: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits < 5 {
		t.Errorf("hits=%d", res.Hits)
	}
	// The expensive third attribute should move less than with plain L2.
	plain, err := MinCostIQCtx(context.Background(), idx, MinCostRequest{Target: 0, Tau: 5, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Strategy[2]) > math.Abs(plain.Strategy[2])+0.05 {
		t.Errorf("weighted expr cost ignored: expr %v vs plain %v", res.Strategy, plain.Strategy)
	}
}

// doubledL2 embeds L2Cost but overrides MinToHalfspace, as a user-defined
// cost may: the solvers must call its own method, not L2Cost's closed form.
type doubledL2 struct{ L2Cost }

func (c doubledL2) MinToHalfspace(n vec.Vector, rhs float64, b *Bounds) (vec.Vector, error) {
	s, err := c.L2Cost.MinToHalfspace(n, rhs, b)
	if err == nil {
		vec.ScaleInPlace(s, 2)
	}
	return s, err
}

// shortStep returns a strategy of the wrong dimension.
type shortStep struct{ L2Cost }

func (shortStep) MinToHalfspace(vec.Vector, float64, *Bounds) (vec.Vector, error) {
	return vec.Vector{-1}, nil
}

// A probe solves a built-in cost in place and any other through its own
// MinToHalfspace, copied into the probe's buffer; a strategy of the wrong
// dimension is an error, not a panic.
func TestCostMinToHalfspaceDispatch(t *testing.T) {
	n := vec.Vector{1, 1}
	s := vec.New(2)
	for _, c := range []struct {
		cost Cost
		want vec.Vector
	}{{L2Cost{}, vec.Vector{-1, -1}}, {doubledL2{}, vec.Vector{-2, -2}}} {
		if err := costMinToHalfspace(c.cost, s, n, -2, nil); err != nil || !vec.Equal(s, c.want) {
			t.Errorf("%T: step %v (err %v), want %v", c.cost, s, err, c.want)
		}
	}
	if err := costMinToHalfspace(shortStep{}, s, n, -2, nil); err == nil {
		t.Error("a one-dimensional step for a two-dimensional strategy was accepted")
	}
}
