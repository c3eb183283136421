package lp

import (
	"errors"
	"math"

	"iq/internal/vec"
)

// This file holds the closed-form and iterative solvers for the paper's
// per-query subproblem and its multi-constraint generalisation:
//
//	minimise Cost(s)   subject to   n·s ≤ rhs        (one halfspace)
//	minimise Cost(s)   subject to   Nᵢ·s ≤ rhsᵢ ∀i    (many halfspaces)
//
// In Algorithm 3/4 the halfspace comes from Eq. 14: making the improved
// object's score at query q beat the k-th score t requires
// q·(p+s) < t  ⇔  q·s < t − q·p.

// ErrNoDirection is returned when the constraint normal is zero but the
// right-hand side is negative: no strategy can satisfy it.
var ErrNoDirection = errors.New("lp: constraint normal is zero and rhs is unsatisfiable")

// The closed forms below write their solution into s, which has len(n)
// entries: the greedy solvers call them once per candidate probe. Only
// BoxedMinL2ToHalfspace allocates (its per-coordinate flags). On an error
// the contents of s are unspecified.

// MinL2ToHalfspace writes into s the minimum-Euclidean-norm s with
// n·s ≤ rhs. When rhs ≥ 0 the zero vector is already feasible. Otherwise the
// optimum is the projection of the origin onto the constraint boundary:
// s = rhs·n / ‖n‖².
func MinL2ToHalfspace(s, n vec.Vector, rhs float64) error {
	if rhs >= 0 {
		clear(s)
		return nil
	}
	nn := vec.Dot(n, n)
	if nn == 0 {
		return ErrNoDirection
	}
	c := rhs / nn
	for i, x := range n {
		s[i] = x * c
	}
	return nil
}

// MinWeightedL2ToHalfspace writes into s the minimiser of sqrt(Σ αᵢ sᵢ²)
// subject to n·s ≤ rhs, with all αᵢ > 0. By the substitution uᵢ = √αᵢ·sᵢ
// this reduces to the plain L2 projection with normal nᵢ/√αᵢ.
func MinWeightedL2ToHalfspace(s, n, alpha vec.Vector, rhs float64) error {
	if rhs >= 0 {
		clear(s)
		return nil
	}
	if len(alpha) != len(n) {
		return errors.New("lp: alpha dimension mismatch")
	}
	denom := 0.0
	for i := range n {
		if alpha[i] <= 0 {
			return errors.New("lp: weighted L2 requires positive weights")
		}
		denom += n[i] * n[i] / alpha[i]
	}
	if denom == 0 {
		return ErrNoDirection
	}
	for i := range n {
		s[i] = rhs * n[i] / (alpha[i] * denom)
	}
	return nil
}

// MinL1ToHalfspace writes into s the minimiser of Σ|sᵢ| subject to
// n·s ≤ rhs. The optimum puts all the change on the coordinate with the
// largest |nᵢ| (most score change per unit cost): s_j = rhs/n_j at
// j = argmax |nᵢ|.
func MinL1ToHalfspace(s, n vec.Vector, rhs float64) error {
	clear(s)
	if rhs >= 0 {
		return nil
	}
	best, bestAbs := -1, 0.0
	for i, x := range n {
		if a := math.Abs(x); a > bestAbs {
			best, bestAbs = i, a
		}
	}
	if best == -1 {
		return ErrNoDirection
	}
	s[best] = rhs / n[best]
	return nil
}

// BoxedMinL2ToHalfspace writes into s the minimiser of ‖s‖₂ subject to
// n·s ≤ rhs and lo ≤ s ≤ hi (component bounds model the paper's "valid
// improvement strategy" restrictions: frozen attributes have lo=hi=0). It
// uses a projected alternating scheme: project onto the halfspace, clamp to
// the box, and re-project residual demand onto the still-free coordinates.
// Returns ErrInfeasible when the box cannot satisfy the halfspace.
func BoxedMinL2ToHalfspace(s, n vec.Vector, rhs float64, lo, hi vec.Vector) error {
	d := len(n)
	if rhs >= 0 {
		// Zero must lie in the box.
		for i := 0; i < d; i++ {
			s[i] = 0
			if lo[i] > 0 || hi[i] < 0 {
				s[i] = math.Min(math.Max(0, lo[i]), hi[i])
			}
		}
		if vec.Dot(n, s) <= rhs {
			return nil
		}
		// Fall through to the general routine.
	}
	// Feasibility: the minimum of n·s over the box.
	minVal := 0.0
	for i := 0; i < d; i++ {
		if n[i] > 0 {
			minVal += n[i] * lo[i]
		} else {
			minVal += n[i] * hi[i]
		}
	}
	if minVal > rhs {
		return ErrInfeasible
	}
	// Active-set iteration: start from the unconstrained projection; clamp
	// out-of-box coordinates and redistribute the remaining requirement on
	// free coordinates. Terminates because the clamped set only grows.
	free := make([]bool, d)
	for i := range free {
		free[i] = true
	}
	// Start from zero: when ‖n‖² underflows, the first pass breaks before
	// it writes s.
	clear(s)
	for iter := 0; iter <= d; iter++ {
		// Requirement on the free coordinates.
		need := rhs
		for i := 0; i < d; i++ {
			if !free[i] {
				need -= n[i] * s[i]
			}
		}
		nn := 0.0
		for i := 0; i < d; i++ {
			if free[i] {
				nn += n[i] * n[i]
			}
		}
		if nn == 0 {
			if need >= -1e-12 {
				break
			}
			return ErrInfeasible
		}
		scale := 0.0
		if need < 0 {
			scale = need / nn
		}
		violated := false
		for i := 0; i < d; i++ {
			if !free[i] {
				continue
			}
			v := scale * n[i]
			if v < lo[i] {
				s[i] = lo[i]
				free[i] = false
				violated = true
			} else if v > hi[i] {
				s[i] = hi[i]
				free[i] = false
				violated = true
			} else {
				s[i] = v
			}
		}
		if !violated {
			break
		}
	}
	if vec.Dot(n, s) > rhs+1e-7 {
		return ErrInfeasible
	}
	return nil
}

// CostFunc is a user-defined cost of applying strategy s; it must be convex
// with Cost(0) == 0 and non-decreasing in |sᵢ| for the solvers here to find
// global optima. It must not keep s, which the solvers reuse.
type CostFunc func(s vec.Vector) float64

// MinCostToHalfspace minimises an arbitrary convex cost subject to
// n·s ≤ rhs. It exploits that for rhs < 0 the optimum lies on the boundary
// n·s = rhs and scales the cheapest descent direction found by
// coordinate-exchange: starting from the L2 projection, it iteratively tries
// transferring requirement between coordinate pairs while the cost improves.
// For the closed-form families, prefer the dedicated functions.
//
// The line searches write their points into two reused buffers, trial and
// cand, so a call allocates four vectors however many steps they take; each
// point s + t·dir is summed as vec.Add(s, vec.Scale(dir, t)) sums it.
func MinCostToHalfspace(cost CostFunc, n vec.Vector, rhs float64) (vec.Vector, error) {
	if rhs >= 0 {
		return vec.New(len(n)), nil
	}
	d := len(n)
	s := vec.New(d)
	if err := MinL2ToHalfspace(s, n, rhs); err != nil {
		return nil, err
	}
	best := cost(s)
	dir, trial, cand := vec.New(d), vec.New(d), vec.New(d)
	step := func(dst vec.Vector, t float64) vec.Vector {
		for k := range dst {
			dst[k] = s[k] + float64(dir[k]*t)
		}
		return dst
	}
	// Coordinate-exchange refinement on the hyperplane n·s = rhs.
	improved := true
	for pass := 0; pass < 40 && improved; pass++ {
		improved = false
		for i := 0; i < d; i++ {
			if n[i] == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				if j == i || n[j] == 0 {
					continue
				}
				// Move delta along direction eᵢ − (nᵢ/nⱼ)eⱼ which keeps
				// n·s constant; line-search the delta by golden section.
				clear(dir)
				dir[i] = 1
				dir[j] = -n[i] / n[j]
				lo, hi := -vec.Norm2(s)-1, vec.Norm2(s)+1
				f := func(t float64) float64 {
					return cost(step(trial, t))
				}
				t := goldenSection(f, lo, hi, 1e-9)
				if c := cost(step(cand, t)); c < best-1e-12 {
					s, cand, best = cand, s, c
					improved = true
				}
			}
		}
	}
	return s, nil
}

// goldenSectionMaxIter bounds goldenSection's loop. The tolerance is
// absolute, and beyond |x| ≈ 8e6 adjacent float64 values are more than 1e-9
// apart, so an interval out there stops shrinking before it meets the
// tolerance; only the cap ends that loop. Each iteration shrinks the
// interval by the golden ratio, so an interval that does converge meets the
// tolerance in about 100 iterations, well inside the cap.
const goldenSectionMaxIter = 200

// goldenSection minimises a unimodal function on [lo, hi].
func goldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for iter := 0; b-a > tol && iter < goldenSectionMaxIter; iter++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// MinL2ToSatisfyAll minimises ‖s‖₂ subject to Nᵢ·s ≤ rhsᵢ for every i, via
// Dykstra-style alternating projections (POCS with correction terms, which
// converges to the true projection onto the intersection for convex sets).
// Used by the exhaustive branch-and-bound solver to cost a candidate set of
// queries to hit simultaneously. Returns ErrInfeasible when the constraints
// have no common point (detected by non-convergence of the residual).
func MinL2ToSatisfyAll(normals []vec.Vector, rhs []float64) (vec.Vector, error) {
	if len(normals) == 0 {
		return vec.Vector{}, nil
	}
	d := len(normals[0])
	m := len(normals)
	s := vec.New(d)
	// Dykstra correction terms.
	corrections := make([]vec.Vector, m)
	for i := range corrections {
		corrections[i] = vec.New(d)
	}
	const maxIter = 20000
	for iter := 0; iter < maxIter; iter++ {
		maxViolation := 0.0
		for i := 0; i < m; i++ {
			y := vec.Add(s, corrections[i])
			// Project y onto halfspace i.
			viol := vec.Dot(normals[i], y) - rhs[i]
			var proj vec.Vector
			if viol <= 0 {
				proj = y
			} else {
				nn := vec.Dot(normals[i], normals[i])
				if nn == 0 {
					return nil, ErrInfeasible
				}
				proj = vec.Sub(y, vec.Scale(normals[i], viol/nn))
			}
			corrections[i] = vec.Sub(y, proj)
			s = proj
		}
		for i := 0; i < m; i++ {
			if v := vec.Dot(normals[i], s) - rhs[i]; v > maxViolation {
				maxViolation = v
			}
		}
		if maxViolation <= 1e-9 {
			return s, nil
		}
	}
	// Final feasibility check with loose tolerance.
	for i := 0; i < m; i++ {
		if vec.Dot(normals[i], s)-rhs[i] > 1e-5 {
			return nil, ErrInfeasible
		}
	}
	return s, nil
}
