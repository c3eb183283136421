// Package core implements the paper's primary contribution: Improvement
// Queries. A Min-Cost IQ (Algorithm 3) finds a cheap improvement strategy
// that makes a target object hit at least τ top-k queries; a Max-Hit IQ
// (Algorithm 4) maximises hit queries under a cost budget. Both count hits
// with the Eq. 6 hit table derived from the index's per-query rows (see
// cache.go), iterate greedy candidate strategies with the best cost-per-hit
// ratio, and support user-defined cost functions, validity bounds (frozen
// or range-limited attributes), multiple target objects (Section 5.1), and
// non-linear utility spaces (Section 5.2/5.3).
// An exhaustive branch-and-bound solver provides the paper's "optimal
// strategy" option for tiny inputs.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

// fresh runs a built-in cost's in-place closed form on a new vector: each
// built-in cost has one, a minToHalfspace method that writes
// MinToHalfspace's solution into s (len(n) entries); without bounds it
// allocates nothing. The greedy rounds call it once per probe
// (costMinToHalfspace); the exported MinToHalfspace wraps it.
func fresh(solve func(s, n vec.Vector, rhs float64, bounds *Bounds) error, n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	s := make(vec.Vector, len(n))
	if err := solve(s, n, rhs, bounds); err != nil {
		return nil, err
	}
	return s, nil
}

// costMinToHalfspace writes cost's solution of the per-query subproblem
// into s: in place for a built-in cost, and through the allocating
// MinToHalfspace, copied into s, for any other. The switch matches the
// built-in types exactly, so a user type that embeds one and overrides
// MinToHalfspace keeps its own.
func costMinToHalfspace(cost Cost, s, n vec.Vector, rhs float64, bounds *Bounds) error {
	switch c := cost.(type) {
	case L2Cost:
		return c.minToHalfspace(s, n, rhs, bounds)
	case L1Cost:
		return c.minToHalfspace(s, n, rhs, bounds)
	case WeightedL2Cost:
		return c.minToHalfspace(s, n, rhs, bounds)
	}
	u, err := cost.MinToHalfspace(n, rhs, bounds)
	if err != nil {
		return err
	}
	if len(u) != len(s) {
		return fmt.Errorf("core: cost returned a %d-dimensional strategy, want %d", len(u), len(s))
	}
	copy(s, u)
	return nil
}

// costDuals returns what a built-in cost tells a greedy round about its
// probes before any is solved (see probeBounds): for every row point q_r of
// pts, whose Euclidean norms are norm, the norm ‖q_r‖_* dual to the cost's,
// and σ > 0 such that the cost's unbounded closed form moves a probe at most
// |rhs|/(σ‖q_r‖_*) in L2. By Hölder, |q·u| ≤ ‖q‖_*·Cost(u). σ is 0 for a
// cost with no such bounds: every cost that is not built in, and a weighted
// cost whose weights leave [2⁻¹⁰⁰, 2¹⁰⁰], where its closed form's sums can
// underflow. The switch matches the built-in types exactly, as
// costMinToHalfspace does.
func costDuals(cost Cost, pts []vec.Vector, norm []float64) ([]float64, float64) {
	switch c := cost.(type) {
	case L2Cost:
		return c.duals(norm)
	case L1Cost:
		return c.duals(pts)
	case WeightedL2Cost:
		return c.duals(pts)
	}
	return nil, 0
}

// duals: the L2 norm is its own dual, and the closed form's step is
// rhs·q/‖q‖², of length |rhs|/‖q‖.
func (L2Cost) duals(norm []float64) ([]float64, float64) { return norm, 1 }

// duals: the dual of the L1 norm is the largest |q_i|, and the closed form
// moves that one coordinate by |rhs|/max|q_i|.
func (L1Cost) duals(pts []vec.Vector) ([]float64, float64) {
	dual := make([]float64, len(pts))
	for r, q := range pts {
		for _, x := range q {
			dual[r] = max(dual[r], math.Abs(x))
		}
	}
	return dual, 1
}

// duals: the dual of sqrt(Σ αᵢsᵢ²) is sqrt(Σ qᵢ²/αᵢ), summed as the closed
// form sums it. The closed form's step is rhs·(qᵢ/αᵢ)ᵢ/Σ qᵢ²/αᵢ, of length
// at most |rhs|/(‖q‖_*·√min α), since Σ qᵢ²/αᵢ² ≤ Σ (qᵢ²/αᵢ)/min α.
func (c WeightedL2Cost) duals(pts []vec.Vector) ([]float64, float64) {
	lo := math.Inf(1)
	for _, a := range c.Alpha {
		if !(a >= 0x1p-100 && a <= 0x1p100) {
			return nil, 0
		}
		lo = min(lo, a)
	}
	dual := make([]float64, len(pts))
	for r, q := range pts {
		t := 0.0
		for i, x := range q {
			t += x * x / c.Alpha[i]
		}
		dual[r] = math.Sqrt(t)
	}
	return dual, math.Sqrt(lo)
}

// L2Cost is the paper's experimental cost function (Equation 30):
// Cost(s) = sqrt(Σ sᵢ²).
type L2Cost struct{}

// Of implements Cost.
func (L2Cost) Of(s vec.Vector) float64 { return vec.Norm2(s) }

// MinToHalfspace implements Cost with the closed-form projection.
func (c L2Cost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	return fresh(c.minToHalfspace, n, rhs, bounds)
}

func (L2Cost) minToHalfspace(s, n vec.Vector, rhs float64, bounds *Bounds) error {
	if bounds == nil {
		return lp.MinL2ToHalfspace(s, n, rhs)
	}
	return lp.BoxedMinL2ToHalfspace(s, n, rhs, bounds.Lo, bounds.Hi)
}

// L1Cost prices each unit of attribute change equally:
// Cost(s) = Σ |sᵢ|.
type L1Cost struct{}

// Of implements Cost.
func (L1Cost) Of(s vec.Vector) float64 { return vec.Norm1(s) }

// MinToHalfspace implements Cost. Without bounds the optimum concentrates
// on the most effective coordinate; with bounds, coordinates are filled
// greedily in effectiveness order.
func (c L1Cost) MinToHalfspace(n vec.Vector, rhs float64, bounds *Bounds) (vec.Vector, error) {
	return fresh(c.minToHalfspace, n, rhs, bounds)
}

func (L1Cost) minToHalfspace(s, n vec.Vector, rhs float64, bounds *Bounds) error {
	if bounds == nil {
		return lp.MinL1ToHalfspace(s, n, rhs)
	}
	clear(s)
	if rhs >= 0 {
		return nil
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
			return lp.ErrInfeasible
		}
	}
	return nil
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
	return fresh(c.minToHalfspace, n, rhs, bounds)
}

func (c WeightedL2Cost) minToHalfspace(s, n vec.Vector, rhs float64, bounds *Bounds) error {
	if bounds == nil {
		return lp.MinWeightedL2ToHalfspace(s, n, c.Alpha, rhs)
	}
	d := len(n)
	sn := make(vec.Vector, d)
	lo := make(vec.Vector, d)
	hi := make(vec.Vector, d)
	for i := 0; i < d; i++ {
		if c.Alpha[i] <= 0 {
			return errors.New("core: weighted L2 cost requires positive weights")
		}
		r := math.Sqrt(c.Alpha[i])
		sn[i] = n[i] / r
		lo[i] = bounds.Lo[i] * r
		hi[i] = bounds.Hi[i] * r
	}
	if err := lp.BoxedMinL2ToHalfspace(s, sn, rhs, lo, hi); err != nil {
		return err
	}
	for i := 0; i < d; i++ {
		s[i] /= math.Sqrt(c.Alpha[i])
	}
	return nil
}

// ExprCost evaluates a user-written cost expression over variables s1…sd
// (strategy components) — the fully general "query issuer defines the cost
// function" path. The expression must be convex in s for the numeric solver
// to find global optima.
type ExprCost struct {
	node  expr.Node
	names []string // s1…sd
}

// NewExprCost parses a cost expression using variables s1…sd.
func NewExprCost(src string, dim int) (*ExprCost, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	c := &ExprCost{node: node, names: make([]string, dim)}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("s%d", i+1)
	}
	for v := range expr.VarsOf(node) {
		if !slices.Contains(c.names, v) {
			return nil, fmt.Errorf("core: cost expression references unknown variable %q", v)
		}
	}
	// The cost of doing nothing must be zero.
	if z := c.Of(vec.New(dim)); math.Abs(z) > 1e-9 {
		return nil, fmt.Errorf("core: cost expression is %g at the zero strategy, want 0", z)
	}
	return c, nil
}

// Of implements Cost. Evaluation errors (which indicate a malformed user
// expression) surface as +Inf so the strategy is never selected.
func (c *ExprCost) Of(s vec.Vector) float64 {
	env := make(map[string]float64, len(c.names))
	for i, name := range c.names {
		env[name] = s[i]
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
	boxed := make(vec.Vector, len(n))
	if err := lp.BoxedMinL2ToHalfspace(boxed, n, rhs, bounds.Lo, bounds.Hi); err != nil {
		return nil, err
	}
	return boxed, nil
}
