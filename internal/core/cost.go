// Package core implements the paper's primary contribution: Improvement
// Queries. A Min-Cost IQ (Algorithm 3) finds a cheap improvement strategy
// that makes a target object hit at least τ top-k queries; a Max-Hit IQ
// (Algorithm 4) maximises hit queries under a cost budget. Both build on the
// subdomain index and the ESE evaluator, iterate greedy candidate strategies
// with the best cost-per-hit ratio, and support user-defined cost functions,
// validity bounds (frozen or range-limited attributes), multiple target
// objects (Section 5.1), and non-linear utility spaces (Section 5.2/5.3).
// An exhaustive branch-and-bound solver provides the paper's "optimal
// strategy" option for tiny inputs.
package core

import (
	"errors"
	"fmt"
	"math"

	"iq/internal/expr"
	"iq/internal/lp"
	"iq/internal/vec"
)

// Bounds restricts valid improvement strategies per attribute: Lo[i] ≤ s[i]
// ≤ Hi[i]. A frozen attribute has Lo[i] = Hi[i] = 0 (the paper's "si = 0"
// constraint). A nil *Bounds means unbounded.
type Bounds struct {
	Lo, Hi vec.Vector
}

// Frozen returns bounds freezing the listed attribute indices and leaving
// the rest unbounded, for a d-dimensional object.
func Frozen(d int, frozen ...int) *Bounds {
	b := &Bounds{Lo: make(vec.Vector, d), Hi: make(vec.Vector, d)}
	for i := 0; i < d; i++ {
		b.Lo[i] = math.Inf(-1)
		b.Hi[i] = math.Inf(1)
	}
	for _, i := range frozen {
		b.Lo[i], b.Hi[i] = 0, 0
	}
	return b
}

// check rejects bounds the solvers cannot index or satisfy: Lo and Hi need
// one entry per attribute (d), no NaN, Lo[i] ≤ Hi[i], and infinities only on
// the open side (Lo[i] = -Inf or Hi[i] = +Inf mean unbounded). Nil bounds
// are valid.
func (b *Bounds) check(d int) error {
	if b == nil {
		return nil
	}
	if len(b.Lo) != d || len(b.Hi) != d {
		return fmt.Errorf("core: bounds have %d lower and %d upper entries, want %d", len(b.Lo), len(b.Hi), d)
	}
	for i, lo := range b.Lo {
		hi := b.Hi[i]
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 1) || math.IsInf(hi, -1) || lo > hi {
			return fmt.Errorf("core: bounds for attribute %d are [%g, %g]", i, lo, hi)
		}
	}
	return nil
}

// Contains reports whether strategy s is inside the bounds.
func (b *Bounds) Contains(s vec.Vector) bool {
	if b == nil {
		return true
	}
	for i := range s {
		if s[i] < b.Lo[i]-1e-12 || s[i] > b.Hi[i]+1e-12 {
			return false
		}
	}
	return true
}

// Cost is a user-defined cost function for improvement strategies (the
// query issuer supplies one per target, as the paper prescribes). Cost must
// be convex, non-negative, and zero at the zero strategy.
type Cost interface {
	// Of returns the cost of strategy s.
	Of(s vec.Vector) float64
	// MinToHalfspace solves the paper's per-query subproblem
	// (Equations 13–14): minimise Of(s) subject to n·s ≤ rhs and the
	// bounds. It returns lp.ErrInfeasible when the bounds prevent any
	// solution.
	MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error)
}

// L2Cost is the paper's experimental cost function (Equation 30):
// Cost(s) = sqrt(Σ sᵢ²).
type L2Cost struct{}

// Of implements Cost.
func (L2Cost) Of(s vec.Vector) float64 { return vec.Norm2(s) }

// MinToHalfspace implements Cost with the closed-form projection.
func (L2Cost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	if bounds == nil {
		return lp.MinL2ToHalfspace(n, rhs)
	}
	return lp.BoxedMinL2ToHalfspace(n, rhs, bounds.Lo, bounds.Hi)
}

// L1Cost prices each unit of attribute change equally:
// Cost(s) = Σ |sᵢ|.
type L1Cost struct{}

// Of implements Cost.
func (L1Cost) Of(s vec.Vector) float64 { return vec.Norm1(s) }

// MinToHalfspace implements Cost. Without bounds the optimum concentrates
// on the most effective coordinate; with bounds, coordinates are filled
// greedily in effectiveness order.
func (L1Cost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	if bounds == nil {
		return lp.MinL1ToHalfspace(n, rhs)
	}
	if rhs >= 0 {
		return vec.New(len(n)), nil
	}
	// Greedy fill: coordinates sorted by |n_i| descending; each moves to
	// its bound (or just far enough) until the constraint holds.
	type eff struct {
		i   int
		abs float64
	}
	order := make([]eff, 0, len(n))
	for i, x := range n {
		if x != 0 {
			order = append(order, eff{i, math.Abs(x)})
		}
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && order[b].abs > order[b-1].abs; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	s := vec.New(len(n))
	remaining := rhs // need n·s ≤ rhs < 0
	for _, e := range order {
		if remaining >= 0 {
			break
		}
		i := e.i
		// Move s[i] in the direction that decreases n·s.
		var limit float64
		if n[i] > 0 {
			limit = bounds.Lo[i] // decrease attribute
		} else {
			limit = bounds.Hi[i]
		}
		need := remaining / n[i] // signed move fully satisfying alone
		move := need
		if n[i] > 0 && move < limit {
			move = limit
		}
		if n[i] < 0 && move > limit {
			move = limit
		}
		s[i] = move
		remaining -= n[i] * move
	}
	if remaining < -1e-9 || vec.Dot(n, s) > rhs+1e-9 {
		// Bounds exhausted before satisfying the constraint.
		if vec.Dot(n, s) > rhs+1e-9 {
			return nil, lp.ErrInfeasible
		}
	}
	return s, nil
}

// WeightedL2Cost prices attribute i changes at weight Alpha[i] > 0:
// Cost(s) = sqrt(Σ αᵢ sᵢ²). Useful when some attributes are much harder to
// change than others (e.g. a camera's sensor vs. its price).
type WeightedL2Cost struct {
	Alpha vec.Vector
}

// check rejects weights the cost cannot price a d-dimensional strategy
// with: one finite, positive weight per attribute.
func (c WeightedL2Cost) check(d int) error {
	if len(c.Alpha) != d {
		return fmt.Errorf("core: weighted L2 cost has %d weights, want %d", len(c.Alpha), d)
	}
	for i, a := range c.Alpha {
		if !(a > 0) || math.IsInf(a, 1) {
			return fmt.Errorf("core: weighted L2 cost weight %d is %g, want a finite value > 0", i, a)
		}
	}
	return nil
}

// Of implements Cost.
func (c WeightedL2Cost) Of(s vec.Vector) float64 {
	t := 0.0
	for i := range s {
		t += c.Alpha[i] * s[i] * s[i]
	}
	return math.Sqrt(t)
}

// MinToHalfspace implements Cost via the substitution uᵢ = √αᵢ·sᵢ, which
// turns both the objective and the box into plain L2 form.
func (c WeightedL2Cost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	if bounds == nil {
		return lp.MinWeightedL2ToHalfspace(n, c.Alpha, rhs)
	}
	d := len(n)
	sn := make(vec.Vector, d)
	lo := make(vec.Vector, d)
	hi := make(vec.Vector, d)
	for i := 0; i < d; i++ {
		if c.Alpha[i] <= 0 {
			return nil, errors.New("core: weighted L2 cost requires positive weights")
		}
		r := math.Sqrt(c.Alpha[i])
		sn[i] = n[i] / r
		lo[i] = bounds.Lo[i] * r
		hi[i] = bounds.Hi[i] * r
	}
	u, err := lp.BoxedMinL2ToHalfspace(sn, rhs, lo, hi)
	if err != nil {
		return nil, err
	}
	s := make(vec.Vector, d)
	for i := 0; i < d; i++ {
		s[i] = u[i] / math.Sqrt(c.Alpha[i])
	}
	return s, nil
}

// ExprCost evaluates a user-written cost expression over variables s1…sd
// (strategy components) — the fully general "query issuer defines the cost
// function" path. The expression must be convex in s for the numeric solver
// to find global optima.
type ExprCost struct {
	node expr.Node
	dim  int
}

// NewExprCost parses a cost expression using variables s1…sd.
func NewExprCost(src string, dim int) (*ExprCost, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	vars := expr.VarsOf(node)
	for v := range vars {
		ok := false
		for i := 1; i <= dim; i++ {
			if v == fmt.Sprintf("s%d", i) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: cost expression references unknown variable %q", v)
		}
	}
	// The cost of doing nothing must be zero.
	c := &ExprCost{node: node, dim: dim}
	if z := c.Of(vec.New(dim)); math.Abs(z) > 1e-9 {
		return nil, fmt.Errorf("core: cost expression is %g at the zero strategy, want 0", z)
	}
	return c, nil
}

// Of implements Cost. Evaluation errors (which indicate a malformed user
// expression) surface as +Inf so the strategy is never selected.
func (c *ExprCost) Of(s vec.Vector) float64 {
	env := make(map[string]float64, c.dim)
	for i := 0; i < c.dim; i++ {
		env[fmt.Sprintf("s%d", i+1)] = s[i]
	}
	v, err := c.node.Eval(env)
	if err != nil || math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// MinToHalfspace implements Cost with the numeric coordinate-exchange
// minimiser; bounds are enforced by clamp-and-verify.
func (c *ExprCost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	s, err := lp.MinCostToHalfspace(c.Of, n, rhs)
	if err != nil {
		return nil, err
	}
	if bounds == nil || bounds.Contains(s) {
		return s, nil
	}
	clamped := vec.Clamp(s, bounds.Lo, bounds.Hi)
	if vec.Dot(n, clamped) <= rhs+1e-9 {
		return clamped, nil
	}
	// Fall back to the boxed L2 geometry to find a feasible point, then
	// report it even though it may be suboptimal for the custom cost.
	boxed, err := lp.BoxedMinL2ToHalfspace(n, rhs, bounds.Lo, bounds.Hi)
	if err != nil {
		return nil, err
	}
	return boxed, nil
}
