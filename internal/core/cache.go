package core

// This file is the solvers' Eq. 6 hit table. Under Eq. 6 the improved target
// hits query q_j iff f′(q_j) < f_{j,k}(q_j), the score of the k-th best
// competitor there. Algorithms 3 and 4 need every f_{j,k} anyway — the
// per-query subproblem (Equations 13–14) solves against it — and f_{j,k}
// never moves while the target improves, because the target is excluded from
// its own competition. So one table per (index snapshot, target) holds each
// live query's k-th competitor, and every threshold lookup and every hit
// count of every solve against that snapshot reads it:
//
//	H(p+s) = |always-hit| + #{j : c′·q_j < bound_j}
//
// one dot product per query. It is the simplest reverse top-k index in the
// sense of "Indexing Reverse Top-k Queries" (Chester et al.).
//
// Derivation: the snapshot's index keeps, for every live query, its best
// K+1 skyband members in topk.Better order (subdomain.Index.Row), and the
// skyband holds every possible top-k member. So T_j is the K-th row entry
// that is not the target, and a query whose row has fewer than K such
// entries is always hit: a table costs O(queries·K), with no band scan.
//
// Exactness: each row's bound folds topk.Better's id tie-break into the
// strict score comparison, and scores are summed exactly as vec.Dot sums
// them for topk.Workload.HitsExact, so a table count equals HitsExact bit
// for bit.
//
// Layout: the counting form holds the bounded rows' query points in one
// row-major []float64, dim coordinates per row, with no per-row pointer, and
// every count and every round scores a row with one kernel (score3,
// scoreN). At d = 3 — every benchmark workload, Table 2 and the paper's
// default — the kernel writes the three products out and loads the
// coefficients once per pass; any other dimension loops over the row. Both
// start from 0 and add c_i·q_i for i = 0, 1, … one term at a time, which is
// vec.Dot's loop, so both give vec.Dot's bits.
//
// Lifetime: a table is derived on first use and stored on its snapshot
// (subdomain.Index.Memo), so it dies with the snapshot; an in-place index
// mutation invalidates it by epoch. A copy-on-write mutation keeps the rows
// exact in the new snapshot, whose first solve per target derives its table.
//
// Rounds: a greedy round reads the table once (round): each bounded row's
// score at the target's current coefficients decides whether the row is hit,
// starts its probe's right-hand side, and gives the row a key in a histogram
// from which hitBound bounds every probe's hits, so the round counts exactly
// only the candidates that can win it (see hitBound). The same pass bounds
// every unhit row's probe before it is solved, its cost from below and its
// hits from above (probeBounds), so the round solves only the probes that
// can win it.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

var (
	mThresholdCacheHits = obs.Default.Counter("iq_threshold_cache_hits_total",
		"Hit-threshold lookups served from a stored hit table.")
	mThresholdCacheMisses = obs.Default.Counter("iq_threshold_cache_misses_total",
		"Hit-table rows derived from the index rows because the snapshot had no stored table for the target.")
)

// Row states, one byte per query.
const (
	rowRemoved uint8 = iota // the query is tombstoned: never hit
	rowBounded              // kth/kthID hold the k-th competitor
	rowAlways               // fewer than k competitors: any score hits
)

// hitTable is one target's Eq. 6 thresholds on one index snapshot. It is
// immutable and shared by every solve on the snapshot.
type hitTable struct {
	epoch  uint64
	target int
	// Per query, indexed by workload query index: the row state and the
	// k-th competitor's score T_j and id I_j.
	state []uint8
	kth   []float64
	kthID []int
	// The counting form: the live bounded queries in ascending order with
	// their points, row-major in pts (dim coordinates per row), their bounds
	// and point norms, and the live always-hit queries.
	rows   []int
	dim    int
	pts    []float64
	bound  []float64
	norm   []float64
	always []int
}

// newHitTable allocates target's table on idx with every row removed.
func newHitTable(idx *subdomain.Index, target int) *hitTable {
	n := idx.Workload().NumQueries()
	return &hitTable{
		epoch: idx.Epoch(), target: target, dim: idx.Workload().Space().QueryDim(),
		state: make([]uint8, n), kth: make([]float64, n), kthID: make([]int, n),
	}
}

// current reports whether the table was derived for idx as it is now.
func (t *hitTable) current(idx *subdomain.Index) bool {
	return t.epoch == idx.Epoch() && len(t.state) == idx.Workload().NumQueries()
}

// deriveHitTable derives target's table from idx's rows inside a
// "table/build" span and returns it with the number of rows it derived.
func deriveHitTable(ctx context.Context, idx *subdomain.Index, target int) (*hitTable, int) {
	_, sp := obs.StartSpan(ctx, "table/build")
	defer sp.End()
	w := idx.Workload()
	t := newHitTable(idx, target)
	derived := 0
	for j := range t.state {
		if w.IsQueryRemoved(j) {
			continue
		}
		derived++
		t.state[j] = rowAlways
		k := w.Query(j).K
		for _, e := range idx.Row(j) {
			if e.ID == target {
				continue
			}
			if k--; k == 0 {
				t.state[j], t.kth[j], t.kthID[j] = rowBounded, e.Score, e.ID
				break
			}
		}
	}
	t.index(w)
	sp.SetAttr("target", target)
	sp.SetAttr("rows", derived)
	return t, derived
}

// index derives the counting form from the row states and thresholds.
func (t *hitTable) index(w *topk.Workload) {
	t.rows = make([]int, 0, len(t.state))
	t.pts = make([]float64, 0, t.dim*len(t.state))
	t.bound = make([]float64, 0, len(t.state))
	t.norm = make([]float64, 0, len(t.state))
	for j, s := range t.state {
		switch s {
		case rowAlways:
			t.always = append(t.always, j)
		case rowBounded:
			b := t.kth[j]
			if t.target < t.kthID[j] {
				// topk.Better breaks a score tie by id, so the target
				// also beats a tied k-th competitor with a larger id.
				b = math.Nextafter(b, math.Inf(1))
			}
			t.rows = append(t.rows, j)
			t.pts = append(t.pts, w.Query(j).Point...)
			t.bound = append(t.bound, b)
			t.norm = append(t.norm, vec.Norm2(w.Query(j).Point))
		}
	}
}

// threshold returns T_j, the score the improved target must beat at query
// j, and false when the query has no k-th competitor (any score hits).
func (t *hitTable) threshold(j int) (float64, bool) {
	return t.kth[j], t.state[j] == rowBounded
}

// pt returns row r's query point, a read-only view of pts.
func (t *hitTable) pt(r int) vec.Vector {
	return t.pts[r*t.dim : (r+1)*t.dim : (r+1)*t.dim]
}

// score3 and scoreN are the table's scoring kernel. Each returns the score
// s = c·q of a row point q at coefficients c, and a = Σ|c_i·q_i|, the size
// of its rounding error. s is vec.Dot's sum, term by term in its order, so
// it is bit-identical to the score HitsExact compares. score3 serves tables
// of dimension 3, with the three terms written out over coefficients the
// caller loads once per pass; scoreN is the loop of every other dimension.
// Both inline, so a caller that drops a does not sum it; max(p, −p), unlike
// math.Abs, keeps score3 within the inlining budget, and it is |p| for every
// product p that is not NaN (a NaN product makes s and a NaN either way).
func score3(c0, c1, c2 float64, q []float64) (s, a float64) {
	q = q[:3]
	p0, p1, p2 := c0*q[0], c1*q[1], c2*q[2]
	s += p0
	s += p1
	s += p2
	return s, max(p0, -p0) + max(p1, -p1) + max(p2, -p2)
}

func scoreN(c, q []float64) (s, a float64) {
	for i, x := range c {
		p := x * q[i]
		s += p
		a += math.Abs(p)
	}
	return s, a
}

// row3 returns row r's point in a table of dimension 3.
func (t *hitTable) row3(r int) []float64 { return t.pts[3*r : 3*r+3 : 3*r+3] }

// hits returns H for a target whose embedded coefficients are coeff. Its
// loops are kept apart from hitSet's so that they count with a conditional
// move, not a branch on each comparison: a count costs the same whichever
// rows are hit.
func (t *hitTable) hits(coeff vec.Vector) int {
	h := len(t.always)
	if t.dim == 3 {
		c0, c1, c2 := coeff[0], coeff[1], coeff[2]
		for r, b := range t.bound {
			if s, _ := score3(c0, c1, c2, t.row3(r)); s < b {
				h++
			}
		}
		return h
	}
	for r, b := range t.bound {
		if s, _ := scoreN(coeff, t.pt(r)); s < b {
			h++
		}
	}
	return h
}

// hitSet fills dst, grown to the workload's query count, with the queries a
// target with embedded coefficients coeff hits, and returns their number.
func (t *hitTable) hitSet(coeff vec.Vector, dst *bitset.Bits) int {
	dst.Grow(len(t.state))
	dst.Reset()
	for _, j := range t.always {
		dst.Set(j)
	}
	var c0, c1, c2 float64
	if t.dim == 3 {
		c0, c1, c2 = coeff[0], coeff[1], coeff[2]
	}
	h := len(t.always)
	for r, j := range t.rows {
		var s float64
		if t.dim == 3 {
			s, _ = score3(c0, c1, c2, t.row3(r))
		} else {
			s, _ = scoreN(coeff, t.pt(r))
		}
		if s < t.bound[r] {
			dst.Set(j)
			h++
		}
	}
	return h
}

// hitBound bounds from above the hits of every probe of one greedy round, so
// the round counts exactly only the candidates that can win it. At the
// round's coefficients c, bounded row r has the key
//
//	key_r = (c·q_r − bound_r − margin_r) / ‖q_r‖
//
// By Cauchy–Schwarz a target moved to c′ scores c′·q_r ≥ c·q_r − D‖q_r‖ with
// D = ‖c′ − c‖, so it hits row r only if key_r ≤ D: at most
// |always| + #{r : key_r ≤ D(1+ε)} queries. margin_r and ε absorb the
// rounding of both scores, of D and of the key itself; slack covers
// underflow.
//
// The count is read from a fixed-size histogram of the keys' IEEE bits
// (positive floats order as their bits): a probe's bound is the number of
// keys in its bucket and every bucket below, an O(1) lookup that can only
// over-count the keys ≤ D(1+ε), so it is still an upper bound.
type hitBound struct {
	at vec.Vector
	// fixed counts the rows every probe may hit: the always-hit rows, rows
	// with key ≤ 0 (every row the round's target already hits among them),
	// and rows whose key is not finite or whose norm is tiny.
	fixed int
	// keys holds the other rows' keys as IEEE bits, in row order; lo and hi
	// are the smallest and largest.
	keys   []uint64
	lo, hi uint64
	// A key k falls in bucket (k−lo)>>shift; cum[b] counts the keys in
	// buckets 0…b. int32 keeps the histogram small: a round has far fewer
	// than 2³¹ rows.
	shift uint
	cum   [histBuckets]int32
	grow  float64 // 1+ε
}

// histBuckets is the size of hitBound's histogram. The buckets split the
// round's key range [lo, hi] evenly in IEEE bits, so each spans a fixed
// share of the binades between the smallest and largest key.
const (
	histBits    = 10
	histBuckets = 1 << histBits
)

// slack is the bound's absolute allowance for underflow: it is added to every
// margin and to every D, and rows whose norm is below it always count.
const slack = 0x1p-400

// unhitRows is one greedy round's rows that the target does not hit,
// slot-indexed in row order, with what the round's pass knows of each row's
// probe before it is solved.
type unhitRows struct {
	query []int     // the row's query
	score []float64 // c·q at the round's coefficients c
	lower []float64 // ≤ Cost.Of(u) for the probe's strategy u; −Inf if unknown
	cap   []int     // ≥ hitBound.upper at the probe's coefficients
	lim   []float64 // the probe's step bound, scaled as upper scales D
}

// probeBounds is what one solve's cost and space tell its rounds about every
// probe before it is solved. With a linear space and a built-in cost, a probe
// u that hits row r — q·(p+u) below the row's threshold, p the target's own
// coefficients — has, by Hölder,
//
//	Cost(u) ≥ |q·u|/‖q‖_* ≥ (p·q − T_r)/‖q‖_*
//
// in the norm ‖·‖_* dual to the cost's (costDuals): one constant per
// (target, row), whose numerator is the row's score in the solve's first
// round, where the target is at p. And the unbounded closed forms move the
// target by at most |rhs|/(σ‖q‖_*) in L2, which bounds the D of the probe's
// hitBound.upper before the probe is solved. See round for the rounding.
type probeBounds struct {
	on    bool // the rows have bounds: a linear space and a built-in cost
	first bool // the next round is the solve's first; it fills gap
	// Per bounded row of the table: s₁ − ε(Σ|p_i·q_i| + |s₁|), with s₁ the
	// row's score at p; and ‖q‖_*.
	gap, dual []float64
	sigma     float64 // the closed form's step factor (costDuals); 0 with strategy bounds
	tol       float64 // absolute allowance for the closed form's n·δ ≤ rhs
	pnorm     float64 // Σ|p_i|
}

// init sets pb for a solve on w with cost and strategy bounds, from table t
// and the target's own coefficients p.
func (pb *probeBounds) init(w *topk.Workload, t *hitTable, cost Cost, bounds *Bounds, p vec.Vector) {
	if !w.Space().Linear() {
		return
	}
	dual, sigma := costDuals(cost, t)
	if sigma == 0 {
		return
	}
	eps := float64(len(p)+4) * 0x1p-50
	*pb = probeBounds{on: true, first: true, gap: make([]float64, len(t.bound)), dual: dual, sigma: sigma, tol: eps * 0x1p-20}
	if bounds != nil {
		// The boxed closed forms accept n·δ ≤ rhs + 1e-7 (L2, weighted L2)
		// and rhs + 1e-9 (the L1 fill), and their steps have no closed form.
		pb.sigma, pb.tol = 0, 0x1p-22
	}
	for _, x := range p {
		pb.pnorm += math.Abs(x)
	}
}

// round is one greedy round's single read of the table, with the target at
// coefficients at. Each bounded row's score s_r = at·q_r is summed once, in
// the order hit sums it, and serves every reader of the round: the row is
// hit iff s_r < bound_r, exactly as hits counts it; an unhit row's query and
// score are appended to u, for its probe's right-hand side
// T_j − s_r − margin (Eq. 14); the row's key fills b; and, when pb is on,
// the row's probe gets its bounds in u (probeBounds), lower ≤ Cost.Of(u) and
// cap ≥ b.upper at its coefficients, from the histogram's count at the
// probe's step bound. A row without them gets lower = −Inf and the round's
// largest cap.
//
// Rounding of the hit bound: a score s = fl(Σ x_i·q_i) is within
// γ_d·Σ|x_i·q_i| of the exact dot product (γ_d ≈ d·2⁻⁵³), and
// Σ|c′_i·q_i| ≤ Σ|c_i·q_i| + D‖q‖. So a hit, fl(c′·q) < bound, implies
// fl(c·q) − bound − 2γ_d·Σ|c_i·q_i| < D‖q‖(1+γ_d).
// margin = ε·(Σ|c_i·q_i| + |fl(c·q)| + |bound|) with ε = (d+4)·2⁻⁵⁰ covers
// that term and the key's own subtraction; the factor 1+ε on D covers the
// rest (the norms and the division). A row the target hits has
// s − bound < 0, so its key is negative: it is fixed.
//
// Rounding of the probe bounds (DESIGN.md, "Hot path & caches", has the
// whole argument): the probe's strategy u = fl(δ + cur) carries every
// rounding of the score s, of rhs, of the closed form's δ and of the sums
// p+cur and δ+cur, each at most a few units of 2⁻⁵³ times
// Σ|p_i·q_i|, |s₁|, Σ|c_i·q_i|, |s|, |bound| or Σ|q_i·u_i|, plus the closed
// form's absolute allowance tol. The first four enter the numerator as
// gap's and margin's ε terms; Σ|q_i·u_i| ≤ ‖q‖_*·‖u‖ and the rounding of
// ‖q‖_*, of Cost.Of and of the division enter as the factor 1−ε. A bound
// below 2⁻⁴⁰⁰ is dropped, so Cost.Of(u) is not near underflow. For the step
// bound, the closed form's δ has length at most |rhs|/(σ‖q‖_*) up to its
// own rounding, |rhs| ≤ s − bound + margin + strictMargin(bound), and the
// probe's D differs from ‖δ‖ by at most ε·(Σ|at_i| + Σ|p_i|) (drift), so
// (|rhs|/(σ‖q‖_*) + drift)(1+ε) ≥ D and its lim is at least the probe's.
// Rows whose norm is below slack have neither bound.
func (t *hitTable) round(at vec.Vector, b *hitBound, pb *probeBounds, u *unhitRows) {
	eps := float64(len(at)+4) * 0x1p-50
	b.at, b.fixed, b.grow = at, len(t.always), 1+eps
	b.keys = b.keys[:0]
	if n := len(t.bound); cap(u.query) < n {
		// Sized once per solve: a round has at most one unhit row per row.
		*u = unhitRows{query: make([]int, 0, n), score: make([]float64, 0, n),
			lower: make([]float64, 0, n), cap: make([]int, 0, n), lim: make([]float64, 0, n)}
	}
	u.query, u.score, u.lower, u.lim = u.query[:0], u.score[:0], u.lower[:0], u.lim[:0]
	first := pb.first
	pb.first = false
	drift := 0.0
	if pb.on {
		for _, x := range at {
			drift += math.Abs(x)
		}
		drift = eps*(drift+pb.pnorm) + slack
	}
	var c0, c1, c2 float64
	if t.dim == 3 {
		c0, c1, c2 = at[0], at[1], at[2]
	}
	for r, bound := range t.bound {
		var s, a float64
		if t.dim == 3 {
			s, a = score3(c0, c1, c2, t.row3(r))
		} else {
			s, a = scoreN(at, t.pt(r))
		}
		if first {
			pb.gap[r] = s - eps*(a+math.Abs(s))
		}
		if s < bound {
			b.fixed++
			continue
		}
		margin := eps*(a+math.Abs(s)+math.Abs(bound)) + slack
		key := (s - bound - margin) / t.norm[r]
		if key > 0 && key <= math.MaxFloat64 && t.norm[r] >= slack {
			b.keys = append(b.keys, math.Float64bits(key))
		} else {
			b.fixed++
		}
		lower, lim := math.Inf(-1), math.Inf(1)
		if pb.on && t.norm[r] >= slack {
			if l := (pb.gap[r] - bound - margin - pb.tol) / pb.dual[r] * (1 - eps); l >= slack && l <= math.MaxFloat64 {
				lower = l
			}
			if pb.sigma > 0 {
				// Beyond 2⁵⁰⁰ the probe's D² may overflow, and D bounds
				// nothing.
				if step := (s-bound+margin+strictMargin(bound))/(pb.dual[r]*pb.sigma) + drift; step <= 0x1p500 {
					lim = step*b.grow*b.grow + slack
				}
			}
		}
		u.query = append(u.query, t.rows[r])
		u.score = append(u.score, s)
		u.lower = append(u.lower, lower)
		u.lim = append(u.lim, lim)
	}
	b.index()
	u.cap = u.cap[:0]
	for _, lim := range u.lim {
		u.cap = append(u.cap, b.count(lim))
	}
}

// index builds the histogram of b.keys.
func (b *hitBound) index() {
	if len(b.keys) == 0 {
		return
	}
	b.lo, b.hi = b.keys[0], b.keys[0]
	for _, k := range b.keys {
		b.lo, b.hi = min(b.lo, k), max(b.hi, k)
	}
	b.shift = uint(max(0, bits.Len64(b.hi-b.lo)-histBits))
	top := (b.hi - b.lo) >> b.shift
	cum := b.cum[:top+1]
	clear(cum)
	for _, k := range b.keys {
		cum[(k-b.lo)>>b.shift]++
	}
	total := int32(0)
	for i, c := range cum {
		total += c
		cum[i] = total
	}
}

// upper returns the most queries a target with coefficients c can hit: the
// fixed rows plus every key in the bucket of D(1+ε) and below.
func (b *hitBound) upper(c vec.Vector) int {
	dd := 0.0
	for i, x := range c {
		e := x - b.at[i]
		dd += e * e
	}
	return b.count(math.Sqrt(dd)*b.grow + slack)
}

// count returns the fixed rows plus every key in lim's bucket and below, and
// every row when lim is not finite. lim is positive, so its bits order it
// among the keys; count only grows with lim.
func (b *hitBound) count(lim float64) int {
	if !(lim <= math.MaxFloat64) {
		return b.fixed + len(b.keys)
	}
	x := math.Float64bits(lim)
	switch {
	case len(b.keys) == 0 || x < b.lo:
		return b.fixed
	case x >= b.hi:
		return b.fixed + len(b.keys)
	}
	return b.fixed + int(b.cum[(x-b.lo)>>b.shift])
}

// tableSlot is one target's place in a snapshot's Memo.
type tableSlot struct {
	mu sync.Mutex
	t  *hitTable
}

// hitTableFor returns target's hit table on idx, stored on the snapshot:
// derived on first use, then shared read-only; a concurrent first use waits
// for the derivation instead of repeating it. The derived rows are
// threshold-cache misses charged to rec (nil-safe).
func hitTableFor(ctx context.Context, idx *subdomain.Index, target int, rec *recorder) *hitTable {
	v, _ := idx.Memo().LoadOrStore(target, &tableSlot{})
	s := v.(*tableSlot)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.t == nil || !s.t.current(idx) {
		var derived int
		s.t, derived = deriveHitTable(ctx, idx, target)
		rec.thresholdMisses(derived)
		mThresholdCacheMisses.Add(int64(derived))
	}
	return s.t
}

// CountHits returns H(p+s), the number of queries target hits on idx once
// improved by strategy s (H(p) when s is nil), by Eq. 6 against target's
// hit table.
func CountHits(ctx context.Context, idx *subdomain.Index, target int, s vec.Vector) (int, error) {
	w := idx.Workload()
	if target < 0 || target >= w.NumObjects() {
		return 0, fmt.Errorf("core: target %d out of range [0,%d)", target, w.NumObjects())
	}
	if w.IsRemoved(target) {
		return 0, fmt.Errorf("core: target %d is removed", target)
	}
	coeff := w.Coeff(target)
	if s != nil {
		var err error
		if coeff, err = w.Space().Embed(vec.Add(w.Attrs(target), s)); err != nil {
			return 0, fmt.Errorf("core: embedding improved target: %w", err)
		}
	}
	t := hitTableFor(ctx, idx, target, nil)
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	return t.hits(coeff), nil
}
