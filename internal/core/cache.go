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
// Exactness: each row's bound folds topk.Better's id tie-break into the
// strict score comparison, and scores are summed by vec.Dot exactly as
// topk.Workload.HitsExact sums them, so a table count equals HitsExact bit
// for bit.
//
// Lifetime: a table is built on first use and stored on its snapshot
// (subdomain.Index.Memo), so it dies with the snapshot. An in-place index
// mutation invalidates it by epoch, PurgeSolveCaches by generation, and
// MigrateSolveCaches carries its rows across a copy-on-write mutation.
//
// Bounds: a greedy round needs exact counts only for the candidates that can
// win it, so hitBound gives every probe of a round an upper bound on its hits
// from one sorted key per row (see hitBound).

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
		"Hit-table rows computed by a full top-k evaluation.")
	mCacheEntriesRetained = obs.Default.Counter("iq_cache_entries_retained_total",
		"Hit-table rows carried across a mutation by dirty-set migration.")
	mCacheEntriesInvalidated = obs.Default.Counter("iq_cache_entries_invalidated_total",
		"Hit-table rows dropped by dirty-set migration because the mutation's dirty set intersected them.")
)

// cacheEnabled gates storing hit tables on their snapshots. On by default;
// the determinism tests flip it to compare the stored path against the
// uncached reference, in which every solve builds a fresh table.
var cacheEnabled atomic.Bool

// purgeGen is advanced by PurgeSolveCaches; a stored table of an older
// generation counts as absent.
var purgeGen atomic.Uint64

func init() { cacheEnabled.Store(true) }

// SetSolveCacheEnabled toggles storing hit tables on their snapshots and
// returns the previous setting. It is a test hook, like SetIterationHook:
// the bit-identity tests use the uncached path as their reference. Disabling
// does not purge — re-enabling reuses still-valid tables; call
// PurgeSolveCaches for a cold start.
func SetSolveCacheEnabled(enabled bool) bool {
	return cacheEnabled.Swap(enabled)
}

// PurgeSolveCaches makes every stored hit table stale, so the next solve on
// any snapshot builds its table cold. Tests use it to force cold-path
// measurements; production code never needs it (tables die with their
// snapshots).
func PurgeSolveCaches() {
	purgeGen.Add(1)
}

// maxIdle is how many consecutive mutations MigrateSolveCaches carries a
// table that no solve uses, so tables of targets nobody asks about age out
// instead of riding every later snapshot.
const maxIdle = 8

// Row states, one byte per query.
const (
	rowUnknown uint8 = iota // not computed: a migration seed's dirty row
	rowBounded              // kth/kthID hold the k-th competitor
	rowAlways               // fewer than k competitors: any score hits
	rowRemoved              // the query is tombstoned: never hit
)

// hitTable is one target's Eq. 6 thresholds on one index snapshot. Once
// complete it is immutable and shared by every worker of every solve on the
// snapshot.
type hitTable struct {
	gen, epoch uint64
	target     int
	// stored marks a table kept on its snapshot; lookups against it count
	// as threshold-cache hits.
	stored bool
	ready  bool // complete: every row known and the counting form derived
	// idle counts the mutations a migration seed's rows were carried
	// across since a solve last used the table.
	idle int
	// Per query, indexed by workload query index: the row state and the
	// k-th competitor's score T_j and id I_j.
	state []uint8
	kth   []float64
	kthID []int
	// The counting form: the live bounded queries in ascending order with
	// their points, bounds and point norms, and the live always-hit queries.
	rows   []int
	pts    []vec.Vector
	bound  []float64
	norm   []float64
	always []int
}

func newHitTable(idx *subdomain.Index, target int, stored bool) *hitTable {
	n := idx.Workload().NumQueries()
	return &hitTable{
		gen: purgeGen.Load(), epoch: idx.Epoch(), target: target, stored: stored,
		state: make([]uint8, n), kth: make([]float64, n), kthID: make([]int, n),
	}
}

// current reports whether the table was built for idx as it is now.
func (t *hitTable) current(idx *subdomain.Index) bool {
	return t.gen == purgeGen.Load() && t.epoch == idx.Epoch() &&
		len(t.state) == idx.Workload().NumQueries()
}

// competitor is one object's score at a query.
type competitor struct {
	score float64
	id    int
}

// build computes every unknown row inside a "table/build" span and derives
// the counting form. A row is the k-th best among the candidate skyband
// minus the target: the skyband holds every possible top-k member. Each
// computed row is a threshold-cache miss charged to rec (nil-safe); build
// returns how many there were.
func (t *hitTable) build(ctx context.Context, idx *subdomain.Index, rec *recorder) int {
	_, sp := obs.StartSpan(ctx, "table/build")
	defer sp.End()
	w := idx.Workload()
	var competitors []int
	for _, c := range idx.Candidates() {
		if c != t.target && !w.IsRemoved(c) {
			competitors = append(competitors, c)
		}
	}
	// No row keeps more than every competitor, however large its K.
	best := make([]competitor, 0, min(w.MaxK(), len(competitors)))
	computed := 0
	for j, s := range t.state {
		if s != rowUnknown {
			continue
		}
		if w.IsQueryRemoved(j) {
			t.state[j] = rowRemoved
			continue
		}
		// best holds the K best competitors seen so far in topk.Better
		// order; a score that cannot enter it costs one comparison.
		q := w.Query(j)
		best = best[:0]
		for _, c := range competitors {
			// w.Score's sum in its order, written out: this form measured
			// faster in perfbench's loops.
			score := 0.0
			for i, x := range w.Coeff(c) {
				score += x * q.Point[i]
			}
			if n := len(best); n == q.K && !topk.Better(score, c, best[n-1].score, best[n-1].id) {
				continue
			} else if n < q.K {
				best = append(best, competitor{})
			}
			// Insert in order; a full buffer drops its K-th.
			i := len(best) - 1
			for ; i > 0 && topk.Better(score, c, best[i-1].score, best[i-1].id); i-- {
				best[i] = best[i-1]
			}
			best[i] = competitor{score, c}
		}
		if len(best) < q.K {
			t.state[j] = rowAlways
		} else {
			t.state[j] = rowBounded
			t.kth[j], t.kthID[j] = best[q.K-1].score, best[q.K-1].id
		}
		computed++
		rec.thresholdMiss()
	}
	t.rows = make([]int, 0, len(t.state))
	t.pts = make([]vec.Vector, 0, len(t.state))
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
			t.pts = append(t.pts, w.Query(j).Point)
			t.bound = append(t.bound, b)
			t.norm = append(t.norm, vec.Norm2(w.Query(j).Point))
		}
	}
	t.ready = true
	sp.SetAttr("target", t.target)
	sp.SetAttr("computed", computed)
	sp.SetAttr("carried", len(t.rows)+len(t.always)-computed)
	return computed
}

// threshold returns T_j, the score the improved target must beat at query
// j, and false when the query has no k-th competitor (any score hits).
func (t *hitTable) threshold(j int) (float64, bool) {
	return t.kth[j], t.state[j] == rowBounded
}

// hit reports whether a target with embedded coefficients coeff hits row r.
// The score is vec.Dot's sum, in its order, so it is bit-identical to the
// score HitsExact compares; it is written out so the counting loops inline
// it.
func (t *hitTable) hit(coeff vec.Vector, r int) bool {
	q := t.pts[r]
	s := 0.0
	for i, c := range coeff {
		s += c * q[i]
	}
	return s < t.bound[r]
}

// hits returns H for a target whose embedded coefficients are coeff.
func (t *hitTable) hits(coeff vec.Vector) int {
	h := len(t.always)
	for r := range t.bound {
		if t.hit(coeff, r) {
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
	h := len(t.always)
	for r, j := range t.rows {
		if t.hit(coeff, r) {
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
// |always| + #{r : key_r ≤ D(1+ε)} queries, one binary search over the
// sorted keys. margin_r and ε absorb the rounding of both scores, of D and of
// the key itself; slack covers underflow.
type hitBound struct {
	at vec.Vector
	// fixed counts the rows every probe may hit: the always-hit rows, rows
	// with key ≤ 0, and rows whose key is not finite or whose norm is tiny.
	fixed int
	// keys holds the other rows' keys as IEEE bits, ascending: positive
	// floats order as their bits, so the search compares integers.
	keys []uint64
	grow float64 // 1+ε
}

// slack is the bound's absolute allowance for underflow: it is added to every
// margin and to every D, and rows whose norm is below it always count.
const slack = 0x1p-400

// roundBound fills b for a round whose target sits at coefficients at.
//
// Rounding: a score s = fl(Σ x_i·q_i) is within γ_d·Σ|x_i·q_i| of the exact
// dot product (γ_d ≈ d·2⁻⁵³), and Σ|c′_i·q_i| ≤ Σ|c_i·q_i| + D‖q‖. So a hit,
// fl(c′·q) < bound, implies fl(c·q) − bound − 2γ_d·Σ|c_i·q_i| <
// D‖q‖(1+γ_d). margin = ε·(Σ|c_i·q_i| + |fl(c·q)| + |bound|) with
// ε = (d+4)·2⁻⁵⁰ covers that term and the key's own subtraction; the
// factor 1+ε on D covers the rest (the norms and the division).
func (t *hitTable) roundBound(at vec.Vector, b *hitBound) {
	eps := float64(len(at)+4) * 0x1p-50
	b.at, b.fixed, b.grow = at, len(t.always), 1+eps
	b.keys = b.keys[:0]
	for r, q := range t.pts {
		s, a := 0.0, 0.0
		for i, x := range at {
			p := x * q[i]
			s += p
			a += math.Abs(p)
		}
		margin := eps*(a+math.Abs(s)+math.Abs(t.bound[r])) + slack
		key := (s - t.bound[r] - margin) / t.norm[r]
		if key > 0 && key <= math.MaxFloat64 && t.norm[r] >= slack {
			b.keys = append(b.keys, math.Float64bits(key))
		} else {
			b.fixed++
		}
	}
	slices.Sort(b.keys)
}

// upper returns the most queries a target with coefficients c can hit: the
// fixed rows plus every row whose key is at most D(1+ε). A D that is not
// finite bounds nothing, so every row counts.
func (b *hitBound) upper(c vec.Vector) int {
	dd := 0.0
	for i, x := range c {
		e := x - b.at[i]
		dd += e * e
	}
	lim := math.Sqrt(dd)*b.grow + slack
	if !(lim <= math.MaxFloat64) {
		return b.fixed + len(b.keys)
	}
	// Count the keys ≤ lim, which is positive: the count lies in
	// [base, base+n]. The step is branch-free (borrow is 1 when the key is
	// above lim), because a probe's side of each key is unpredictable.
	x := math.Float64bits(lim)
	base, n := 0, len(b.keys)
	for n > 1 {
		half := n / 2
		_, borrow := bits.Sub64(x, b.keys[base+half], 0)
		base += half &^ -int(borrow)
		n -= half
	}
	if n == 1 && b.keys[base] <= x {
		base++
	}
	return b.fixed + base
}

// tableSlot is one target's place in a snapshot's Memo: the complete table,
// or the rows a migration carried until the first solve completes them.
type tableSlot struct {
	mu sync.Mutex
	t  *hitTable
}

// hitTableFor returns target's complete hit table on idx. With the solve
// caches on, the table is stored on the snapshot: built on first use, or
// completed from the rows a migration carried, then shared read-only; a
// concurrent first use waits for the build instead of repeating it. With
// them off, every call builds a fresh table and charges rec nothing.
func hitTableFor(ctx context.Context, idx *subdomain.Index, target int, rec *recorder) *hitTable {
	if !cacheEnabled.Load() {
		t := newHitTable(idx, target, false)
		t.build(ctx, idx, nil)
		return t
	}
	v, _ := idx.Memo().LoadOrStore(target, &tableSlot{})
	s := v.(*tableSlot)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.t == nil || !s.t.current(idx) {
		s.t = newHitTable(idx, target, true)
	}
	if !s.t.ready {
		mThresholdCacheMisses.Add(int64(s.t.build(ctx, idx, rec)))
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

// MigrateSolveCaches carries hit tables across a copy-on-write mutation:
// every table stored on the pre-mutation snapshot oldIdx seeds its target's
// table on the successor newIdx with the rows the mutation's dirty set ds
// (newIdx's TakeDirty) left exact, and the first solve on newIdx computes
// only the rest. A row is dropped when its query is dirty and the target is
// not the query's sole source (a target's row excludes the target itself);
// every other row is copied bit for bit. A table no solve has used for
// maxIdle mutations is not carried further. The write path calls it after
// the mutation succeeded and before publishing newIdx. A table already
// stored on newIdx is kept.
func MigrateSolveCaches(oldIdx, newIdx *subdomain.Index, ds *subdomain.DirtySet) {
	if oldIdx == newIdx || !cacheEnabled.Load() {
		return
	}
	oldIdx.Memo().Range(func(k, v any) bool {
		target, s := k.(int), v.(*tableSlot)
		var seed *hitTable
		s.mu.Lock()
		if old := s.t; old != nil && old.current(oldIdx) {
			idle := 1
			if !old.ready {
				idle = old.idle + 1
			}
			if idle <= maxIdle {
				seed = newHitTable(newIdx, target, true)
				seed.idle = idle
				copy(seed.state, old.state)
				copy(seed.kth, old.kth)
				copy(seed.kthID, old.kthID)
			}
		}
		s.mu.Unlock()
		if seed == nil {
			return true
		}
		dropped := 0
		ds.ForEachQuery(func(j, source int) {
			if j < len(seed.state) && source != target && seed.state[j] != rowUnknown {
				seed.state[j] = rowUnknown
				dropped++
			}
		})
		mCacheEntriesInvalidated.Add(int64(dropped))
		if kept := knownRows(seed.state); kept > 0 {
			mCacheEntriesRetained.Add(int64(kept))
			newIdx.Memo().LoadOrStore(target, &tableSlot{t: seed})
		}
		return true
	})
}

func knownRows(state []uint8) int {
	n := 0
	for _, s := range state {
		if s != rowUnknown {
			n++
		}
	}
	return n
}
