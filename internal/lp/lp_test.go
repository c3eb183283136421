package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"iq/internal/vec"
)

func TestSimplexTextbook(t *testing.T) {
	// maximise 3x+5y s.t. x≤4, 2y≤12, 3x+2y≤18  (min −3x−5y), opt (2,6)=36.
	c := []float64{-3, -5}
	a := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	b := []float64{4, 12, 18}
	x, obj, err := Simplex(c, a, b)
	if err != nil {
		t.Fatalf("Simplex: %v", err)
	}
	if math.Abs(obj+36) > 1e-7 {
		t.Errorf("obj=%v want -36", obj)
	}
	if math.Abs(x[0]-2) > 1e-7 || math.Abs(x[1]-6) > 1e-7 {
		t.Errorf("x=%v want (2,6)", x)
	}
}

func TestSimplexWithNegativeRHS(t *testing.T) {
	// minimise x+y s.t. −x−y ≤ −4 (i.e. x+y ≥ 4), x,y ≥ 0 → opt value 4.
	c := []float64{1, 1}
	a := [][]float64{{-1, -1}}
	b := []float64{-4}
	x, obj, err := Simplex(c, a, b)
	if err != nil {
		t.Fatalf("Simplex: %v", err)
	}
	if math.Abs(obj-4) > 1e-7 {
		t.Errorf("obj=%v want 4 (x=%v)", obj, x)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 3.
	c := []float64{1}
	a := [][]float64{{1}, {-1}}
	b := []float64{1, -3}
	if _, _, err := Simplex(c, a, b); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// minimise −x with only x ≥ 0.
	c := []float64{-1}
	a := [][]float64{}
	b := []float64{}
	if _, _, err := Simplex(c, a, b); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

func TestSimplexDegenerateAndZeroVars(t *testing.T) {
	x, obj, err := Simplex([]float64{}, [][]float64{{}, {}}, []float64{1, 0})
	if err != nil || len(x) != 0 || obj != 0 {
		t.Errorf("empty problem: %v %v %v", x, obj, err)
	}
	if _, _, err := Simplex([]float64{}, [][]float64{{}}, []float64{-1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("empty infeasible: %v", err)
	}
	if _, _, err := Simplex([]float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// Property: simplex optimum is feasible and no random feasible point beats it.
func TestQuickSimplexOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64() // non-negative cost keeps it bounded
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64()*2 - 1
			}
			b[i] = rng.Float64() * 2 // nonneg ⇒ origin feasible
		}
		x, obj, err := Simplex(c, a, b)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range a {
			lhs := 0.0
			for j := range x {
				lhs += a[i][j] * x[j]
			}
			if lhs > b[i]+1e-6 {
				t.Fatalf("iter %d: constraint %d violated: %v > %v", iter, i, lhs, b[i])
			}
		}
		for j := range x {
			if x[j] < -1e-9 {
				t.Fatalf("iter %d: negative variable %v", iter, x[j])
			}
		}
		// With non-negative c and origin feasible, optimum must be ≤ 0+ε
		// and actually 0 (origin).
		if obj < -1e-7 {
			t.Fatalf("iter %d: objective %v below origin value", iter, obj)
		}
	}
}

// Property: simplex matches brute-force vertex enumeration on random small
// LPs with origin infeasible.
func TestQuickSimplexAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 50; iter++ {
		// minimise c·x s.t. x+y >= r (forced work), x,y <= 3.
		c := []float64{0.5 + rng.Float64(), 0.5 + rng.Float64()}
		r := 1 + rng.Float64()*2
		a := [][]float64{{-1, -1}, {1, 0}, {0, 1}}
		b := []float64{-r, 3, 3}
		_, obj, err := Simplex(c, a, b)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Optimum puts everything on the cheaper coordinate: r*min(c).
		want := r * math.Min(c[0], c[1])
		if math.Abs(obj-want) > 1e-6 {
			t.Fatalf("iter %d: obj %v want %v", iter, obj, want)
		}
	}
}

func TestSolveFree(t *testing.T) {
	// minimise |x| with price 1 both ways, s.t. x ≤ −2 → x = −2, cost 2.
	x, obj, err := SolveFree([]float64{1}, []float64{1}, [][]float64{{1}}, []float64{-2})
	if err != nil {
		t.Fatalf("SolveFree: %v", err)
	}
	if math.Abs(x[0]+2) > 1e-7 || math.Abs(obj-2) > 1e-7 {
		t.Errorf("x=%v obj=%v", x, obj)
	}
	// Direction-dependent pricing: decreasing is 10x cheaper.
	x, obj, err = SolveFree([]float64{10, 10}, []float64{1, 1},
		[][]float64{{-1, -1}}, []float64{-4}) // x+y ≥ 4 must increase... so pays cPos
	if err != nil {
		t.Fatalf("SolveFree: %v", err)
	}
	if math.Abs(obj-40) > 1e-6 {
		t.Errorf("obj=%v want 40 (x=%v)", obj, x)
	}
	if _, _, err := SolveFree([]float64{1}, []float64{1, 2}, nil, nil); err == nil {
		t.Error("mismatched cost vectors accepted")
	}
}

// The closed forms write into a destination; these run them on a fresh
// vector filled with NaN, so every test below also checks that no stale
// entry of the destination survives.
func dirty(d int) vec.Vector {
	s := vec.New(d)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func minL2(n vec.Vector, rhs float64) (vec.Vector, error) {
	s := dirty(len(n))
	return s, MinL2ToHalfspace(s, n, rhs)
}

func minL1(n vec.Vector, rhs float64) (vec.Vector, error) {
	s := dirty(len(n))
	return s, MinL1ToHalfspace(s, n, rhs)
}

func minWeightedL2(n, alpha vec.Vector, rhs float64) (vec.Vector, error) {
	s := dirty(len(n))
	return s, MinWeightedL2ToHalfspace(s, n, alpha, rhs)
}

func boxedMinL2(n vec.Vector, rhs float64, lo, hi vec.Vector) (vec.Vector, error) {
	s := dirty(len(n))
	return s, BoxedMinL2ToHalfspace(s, n, rhs, lo, hi)
}

func TestMinL2ToHalfspace(t *testing.T) {
	// n·s ≤ −2 with n=(1,1): s = −(1,1), ‖s‖=√2.
	s, err := minL2(vec.Vector{1, 1}, -2)
	if err != nil {
		t.Fatalf("err=%v", err)
	}
	if !vec.ApproxEqual(s, vec.Vector{-1, -1}, 1e-9) {
		t.Errorf("s=%v", s)
	}
	// Already satisfied.
	s, err = minL2(vec.Vector{1, 1}, 0.5)
	if err != nil || !vec.IsZero(s) {
		t.Errorf("s=%v err=%v", s, err)
	}
	// Degenerate.
	if _, err := minL2(vec.Vector{0, 0}, -1); !errors.Is(err, ErrNoDirection) {
		t.Errorf("err=%v", err)
	}
}

// Property: the L2 projection satisfies the constraint tightly and any other
// random feasible point has larger norm.
func TestQuickMinL2Optimality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(4)
		n := make(vec.Vector, d)
		for i := range n {
			n[i] = rng.Float64()*2 - 1
		}
		if vec.Norm2(n) < 1e-6 {
			continue
		}
		rhs := -rng.Float64() * 3
		s, err := minL2(n, rhs)
		if err != nil {
			t.Fatal(err)
		}
		if vec.Dot(n, s) > rhs+1e-9 {
			t.Fatalf("constraint violated: %v > %v", vec.Dot(n, s), rhs)
		}
		for trial := 0; trial < 30; trial++ {
			cand := make(vec.Vector, d)
			for i := range cand {
				cand[i] = rng.Float64()*6 - 3
			}
			if vec.Dot(n, cand) <= rhs && vec.Norm2(cand) < vec.Norm2(s)-1e-9 {
				t.Fatalf("found better feasible point %v (norm %v < %v)", cand, vec.Norm2(cand), vec.Norm2(s))
			}
		}
	}
}

func TestMinL1ToHalfspace(t *testing.T) {
	// n=(1,3), rhs=−6: cheapest on coord 1: s=(0,−2), cost 2.
	s, err := minL1(vec.Vector{1, 3}, -6)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(s, vec.Vector{0, -2}, 1e-9) {
		t.Errorf("s=%v", s)
	}
	if _, err := minL1(vec.Vector{0, 0}, -1); err == nil {
		t.Error("expected error for zero normal")
	}
	s, _ = minL1(vec.Vector{1, 1}, 1)
	if !vec.IsZero(s) {
		t.Errorf("satisfied constraint should return zero: %v", s)
	}
}

func TestMinWeightedL2(t *testing.T) {
	// Heavier α on coord 0 pushes change to coord 1.
	s, err := minWeightedL2(vec.Vector{1, 1}, vec.Vector{100, 1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]) > math.Abs(s[1]) {
		t.Errorf("expected change concentrated on cheap coord: %v", s)
	}
	if vec.Dot(vec.Vector{1, 1}, s) > -1+1e-9 {
		t.Errorf("constraint violated: %v", s)
	}
	if _, err := minWeightedL2(vec.Vector{1}, vec.Vector{-1}, -1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := minWeightedL2(vec.Vector{1, 2}, vec.Vector{1}, -1); err == nil {
		t.Error("alpha dim mismatch accepted")
	}
}

func TestBoxedMinL2(t *testing.T) {
	n := vec.Vector{1, 1}
	lo := vec.Vector{-0.5, -10}
	hi := vec.Vector{10, 10}
	s, err := boxedMinL2(n, -2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dot(n, s) > -2+1e-7 {
		t.Errorf("constraint violated: %v", s)
	}
	if s[0] < lo[0]-1e-9 || s[1] < lo[1]-1e-9 {
		t.Errorf("box violated: %v", s)
	}
	// Unconstrained optimum is (−1,−1); box forces s0 ≥ −0.5 so s1 ≤ −1.5.
	if math.Abs(s[0]+0.5) > 1e-6 || math.Abs(s[1]+1.5) > 1e-6 {
		t.Errorf("s=%v want (-0.5,-1.5)", s)
	}
	// Infeasible box.
	if _, err := boxedMinL2(n, -100, vec.Vector{-1, -1}, vec.Vector{1, 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err=%v", err)
	}
	// Frozen attribute (lo=hi=0 on coord 0).
	s, err = boxedMinL2(n, -2, vec.Vector{0, -10}, vec.Vector{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 0 || math.Abs(s[1]+2) > 1e-6 {
		t.Errorf("frozen attr: %v", s)
	}
	// ‖n‖² underflows to 0, so the active-set iteration stops before its
	// first write; the zero strategy still meets the halfspace.
	s, err = boxedMinL2(vec.Vector{1e-170, 1e-170}, -1e-170, vec.Vector{-1, -1}, vec.Vector{1, 1})
	if err != nil || !vec.IsZero(s) {
		t.Errorf("underflowing normal: s=%v err=%v, want zero", s, err)
	}
}

func TestMinCostToHalfspaceMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		d := 2 + rng.Intn(3)
		n := make(vec.Vector, d)
		for i := range n {
			n[i] = rng.Float64() + 0.1
		}
		rhs := -1 - rng.Float64()
		got, err := MinCostToHalfspace(vec.Norm2, n, rhs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := minL2(n, rhs)
		if vec.Norm2(got) > vec.Norm2(want)+1e-4 {
			t.Errorf("iter %d: numeric %v worse than closed form %v", iter, vec.Norm2(got), vec.Norm2(want))
		}
	}
	// Satisfied constraint short-circuits.
	s, err := MinCostToHalfspace(vec.Norm2, vec.Vector{1, 1}, 1)
	if err != nil || !vec.IsZero(s) {
		t.Errorf("s=%v err=%v", s, err)
	}
}

// The minimum of (x-3e8)² on [-1e9, 1e9] lies where float64 values are
// 6e-8 apart: the interval can never narrow below the 1e-9 tolerance, so
// only the iteration cap ends the search. The search runs on a goroutine so
// a regression fails on the timer instead of hanging the test binary.
func TestGoldenSectionTerminatesWhereSpacingExceedsTol(t *testing.T) {
	done := make(chan float64, 1)
	go func() {
		done <- goldenSection(func(x float64) float64 { return (x - 3e8) * (x - 3e8) }, -1e9, 1e9, 1e-9)
	}()
	select {
	case x := <-done:
		if math.Abs(x-3e8) > 1e-3 {
			t.Errorf("minimum of (x-3e8)² on [-1e9, 1e9] found at %v, want 3e8", x)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("goldenSection on [-1e9, 1e9] did not terminate within 5s")
	}
}

func TestMinL2ToSatisfyAll(t *testing.T) {
	// Two constraints: s0 ≤ −1 and s1 ≤ −1 → optimum (−1,−1).
	normals := []vec.Vector{{1, 0}, {0, 1}}
	rhs := []float64{-1, -1}
	s, err := MinL2ToSatisfyAll(normals, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(s, vec.Vector{-1, -1}, 1e-6) {
		t.Errorf("s=%v", s)
	}
	// Empty constraint set.
	s, err = MinL2ToSatisfyAll(nil, nil)
	if err != nil || len(s) != 0 {
		t.Errorf("empty: %v %v", s, err)
	}
	// Redundant constraints.
	s, err = MinL2ToSatisfyAll(
		[]vec.Vector{{1, 1}, {2, 2}},
		[]float64{-2, -4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(s, vec.Vector{-1, -1}, 1e-5) {
		t.Errorf("redundant: %v", s)
	}
}

// Property: Dykstra projection beats or matches every feasible random point
// and satisfies all constraints.
func TestQuickSatisfyAllOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		d := 2 + rng.Intn(2)
		m := 1 + rng.Intn(3)
		normals := make([]vec.Vector, m)
		rhs := make([]float64, m)
		for i := range normals {
			normals[i] = make(vec.Vector, d)
			for j := range normals[i] {
				normals[i][j] = rng.Float64() + 0.05 // positive ⇒ feasible at −∞
			}
			rhs[i] = -rng.Float64()
		}
		s, err := MinL2ToSatisfyAll(normals, rhs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range normals {
			if vec.Dot(normals[i], s) > rhs[i]+1e-6 {
				t.Fatalf("iter %d: constraint %d violated", iter, i)
			}
		}
		for trial := 0; trial < 40; trial++ {
			cand := make(vec.Vector, d)
			for j := range cand {
				cand[j] = rng.Float64()*4 - 3
			}
			ok := true
			for i := range normals {
				if vec.Dot(normals[i], cand) > rhs[i] {
					ok = false
					break
				}
			}
			if ok && vec.Norm2(cand) < vec.Norm2(s)-1e-4 {
				t.Fatalf("iter %d: better feasible point exists (%v vs %v)", iter, vec.Norm2(cand), vec.Norm2(s))
			}
		}
	}
}
