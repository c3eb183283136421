package core

// This file is the cross-solve caching layer. The paper's whole design
// amortises one precomputed geometric index over many improvement queries,
// but the runtime used to throw that amortisation away: every greedy round
// re-ran hitThreshold's full top-k evaluation for every unhit query, and
// every solve rebuilt its evaluator pool from scratch. Both computations are
// pure functions of (index epoch, target) — the k-th competitor score at a
// query never moves while the target improves (the target is excluded from
// its own competition), and an evaluator's cached ranks stay valid until the
// index mutates — so both are cached here, keyed by identity of the
// immutable epoch snapshot (*subdomain.Index pointer) plus the target, and
// validated against Index.Epoch() for direct in-place mutators.
//
// Correctness invariant: a cache hit returns bit-identical values to the
// recomputation it replaces (the cached float64 IS the previously computed
// one; a recycled evaluator rebuilds itself via ensureFresh when stale), so
// solver results are unchanged with caches on or off — the determinism
// property tests assert exactly that.
//
// Memory: both caches are LRU-bounded. An entry's key holds a strong
// reference to its epoch's index, so an (idx, target) key can never collide
// with a recycled pointer; superseded epochs age out as new entries land.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"iq/internal/ese"
	"iq/internal/obs"
	"iq/internal/subdomain"
)

var (
	mThresholdCacheHits = obs.Default.Counter("iq_threshold_cache_hits_total",
		"hitThreshold lookups served from the epoch-keyed cache.")
	mThresholdCacheMisses = obs.Default.Counter("iq_threshold_cache_misses_total",
		"hitThreshold lookups that ran a full top-k evaluation.")
	mEvaluatorCacheHits = obs.Default.Counter("iq_evaluator_cache_hits_total",
		"Solver evaluators recycled from the cross-solve cache.")
	mEvaluatorCacheMisses = obs.Default.Counter("iq_evaluator_cache_misses_total",
		"Solver evaluators constructed because none was cached.")
	mSolveCacheEvictions = obs.Default.Counter("iq_solve_cache_evictions_total",
		"Cache entries evicted by the LRU bound (both families).")
	mCacheEntriesRetained = obs.Default.Counter("iq_cache_entries_retained_total",
		"Cached values carried across a mutation by dirty-set migration (threshold slots + evaluators).")
	mCacheEntriesInvalidated = obs.Default.Counter("iq_cache_entries_invalidated_total",
		"Cached values dropped by dirty-set migration because the mutation's dirty set intersected them.")
)

// cacheEnabled gates both solve caches. On by default; the determinism
// tests flip it to compare the cached path against the uncached reference.
var cacheEnabled atomic.Bool

func init() { cacheEnabled.Store(true) }

// SetSolveCacheEnabled toggles the cross-solve threshold and evaluator
// caches and returns the previous setting. It is a test hook, like
// SetIterationHook: the bit-identity tests use the uncached path as their
// reference. Disabling does not purge — re-enabling reuses still-valid
// entries; call PurgeSolveCaches for a cold start.
func SetSolveCacheEnabled(enabled bool) bool {
	return cacheEnabled.Swap(enabled)
}

// PurgeSolveCaches drops every cached threshold table and idle evaluator.
// Tests use it to force cold-path measurements; production code never needs
// it (the LRU bounds already cap memory).
func PurgeSolveCaches() {
	thresholds.purge()
	evaluators.purge()
}

// cacheKey identifies one target within one immutable index snapshot. The
// pointer half keeps the snapshot alive while the entry exists, so a key can
// never alias a later allocation at the same address.
type cacheKey struct {
	idx    *subdomain.Index
	target int
}

// lruTable is a mutex-guarded LRU map shared by both cache families. Values
// carry their own fine-grained locks; the table lock covers only lookup,
// insertion, and eviction bookkeeping.
type lruTable[V any] struct {
	mu    sync.Mutex
	max   int
	items map[cacheKey]*list.Element
	order *list.List // front = most recently used
}

type lruSlot[V any] struct {
	key cacheKey
	val V
}

func newLRUTable[V any](max int) *lruTable[V] {
	return &lruTable[V]{max: max, items: map[cacheKey]*list.Element{}, order: list.New()}
}

// getOrCreate returns the entry for key, creating it with mk on first use,
// and marks it most recently used. Eviction of the least recently used entry
// keeps the table at its bound.
func (t *lruTable[V]) getOrCreate(key cacheKey, mk func() V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*lruSlot[V]).val
	}
	v := mk()
	t.items[key] = t.order.PushFront(&lruSlot[V]{key: key, val: v})
	for t.order.Len() > t.max {
		last := t.order.Back()
		t.order.Remove(last)
		delete(t.items, last.Value.(*lruSlot[V]).key)
		mSolveCacheEvictions.Inc()
	}
	return v
}

func (t *lruTable[V]) purge() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items = map[cacheKey]*list.Element{}
	t.order.Init()
}

// entriesFor snapshots every slot keyed to the given index snapshot. The
// migration layer iterates the copy outside the table lock; values carry
// their own locks.
func (t *lruTable[V]) entriesFor(idx *subdomain.Index) []lruSlot[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []lruSlot[V]
	for _, el := range t.items {
		if s := el.Value.(*lruSlot[V]); s.key.idx == idx {
			out = append(out, *s)
		}
	}
	return out
}

// --- hit-threshold cache ---

// Threshold lookup states; a byte per query keeps entries compact.
const (
	thrUnknown   uint8 = iota // not computed yet
	thrBounded                // val holds the k-th competitor score
	thrUnbounded              // fewer than k competitors: any score hits
)

// thresholdEntry caches one (index, target)'s per-query hit thresholds. The
// RWMutex makes the common case — every worker of every solve reading warm
// values — a shared lock; writes happen once per (epoch, query).
type thresholdEntry struct {
	mu    sync.RWMutex
	epoch uint64
	state []uint8
	val   []float64
}

const (
	thresholdTableMax = 256 // (index, target) threshold tables kept
	evaluatorTableMax = 64  // (index, target) idle evaluator pools kept
	idleEvaluatorsMax = 8   // idle evaluators kept per pool
)

var (
	thresholds = newLRUTable[*thresholdEntry](thresholdTableMax)
	evaluators = newLRUTable[*evaluatorEntry](evaluatorTableMax)
)

// cachedHitThreshold is hitThreshold behind the epoch-keyed cache: the k-th
// competitor score at query j is invariant under the target's own
// improvement, so one computation serves every greedy round of every solve
// against this index snapshot. rec (nil-safe) receives per-solve hit/miss
// counts; the package counters always accumulate.
func cachedHitThreshold(idx *subdomain.Index, target, j int, sc *probeScratch, rec *recorder) (float64, bool) {
	if !cacheEnabled.Load() {
		return hitThreshold(idx, target, j, sc)
	}
	e := thresholds.getOrCreate(cacheKey{idx: idx, target: target}, func() *thresholdEntry {
		return &thresholdEntry{}
	})
	epoch := idx.Epoch()
	e.mu.RLock()
	if e.epoch == epoch && j < len(e.state) {
		switch e.state[j] {
		case thrBounded:
			v := e.val[j]
			e.mu.RUnlock()
			mThresholdCacheHits.Inc()
			rec.thresholdLookup(true)
			sc.noteThreshold(true)
			return v, true
		case thrUnbounded:
			e.mu.RUnlock()
			mThresholdCacheHits.Inc()
			rec.thresholdLookup(true)
			sc.noteThreshold(true)
			return 0, false
		}
	}
	e.mu.RUnlock()
	v, bounded := hitThreshold(idx, target, j, sc)
	mThresholdCacheMisses.Inc()
	rec.thresholdLookup(false)
	sc.noteThreshold(false)
	n := idx.Workload().NumQueries()
	e.mu.Lock()
	if e.epoch != epoch || len(e.state) != n {
		// First fill, or the index mutated in place: restart the table at
		// the current epoch. Concurrent writers at the same epoch write
		// identical values, so last-write-wins is harmless.
		e.epoch = epoch
		if cap(e.state) >= n {
			e.state = e.state[:n]
			for i := range e.state {
				e.state[i] = thrUnknown
			}
			e.val = e.val[:n]
		} else {
			e.state = make([]uint8, n)
			e.val = make([]float64, n)
		}
	}
	if j < len(e.state) {
		if bounded {
			e.state[j] = thrBounded
			e.val[j] = v
		} else {
			e.state[j] = thrUnbounded
		}
	}
	e.mu.Unlock()
	return v, bounded
}

// --- evaluator cache ---

// evaluatorEntry holds idle evaluators for one (index, target), ready to be
// recycled into the next solve. Evaluators are exclusively owned while
// acquired — they carry mutable scratch state — so the entry only ever holds
// ones no solve is using.
type evaluatorEntry struct {
	mu    sync.Mutex
	epoch uint64
	idle  []*ese.Evaluator
}

// AcquireEvaluators returns `workers` (after clamping, at least one)
// evaluators for the target, recycling idle ones cached from previous solves
// against the same index snapshot and constructing the remainder. The second
// return value releases the evaluators back to the cache; call it exactly
// once, after the last use of the pool. With the solve caches disabled it
// constructs a fresh pool and the release is a no-op.
func AcquireEvaluators(ctx context.Context, idx *subdomain.Index, target, workers int) ([]*ese.Evaluator, func(), error) {
	workers = clampWorkers(workers, idx.Workload().NumQueries())
	if !cacheEnabled.Load() {
		pool, err := evaluatorPool(ctx, idx, target, workers)
		if err != nil {
			return nil, nil, err
		}
		return pool, func() {}, nil
	}
	key := cacheKey{idx: idx, target: target}
	e := evaluators.getOrCreate(key, func() *evaluatorEntry { return &evaluatorEntry{} })
	epoch := idx.Epoch()
	var pool []*ese.Evaluator
	e.mu.Lock()
	if e.epoch != epoch {
		// The index mutated in place since these were parked. They would
		// self-heal via their own epoch check, but a rebuild costs as much
		// as a fresh construction — drop them for clarity.
		e.idle = nil
		e.epoch = epoch
	}
	if n := min(workers, len(e.idle)); n > 0 {
		pool = append(pool, e.idle[len(e.idle)-n:]...)
		e.idle = e.idle[:len(e.idle)-n]
	}
	e.mu.Unlock()
	mEvaluatorCacheHits.Add(int64(len(pool)))
	for _, ev := range pool {
		ev.Bind(ctx)
	}
	for len(pool) < workers {
		ev, err := ese.NewCtx(ctx, idx, target)
		if err != nil {
			releaseEvaluators(key, pool)
			return nil, nil, err
		}
		mEvaluatorCacheMisses.Inc()
		pool = append(pool, ev)
	}
	release := func() { releaseEvaluators(key, pool) }
	return pool, release, nil
}

// --- dirty-set cache migration ---

// MigrateSolveCaches carries cached solver state across a copy-on-write
// mutation: every threshold table and idle evaluator keyed to the
// pre-mutation snapshot oldIdx is re-keyed to its successor newIdx, minus
// exactly the values the mutation's dirty set invalidates. The write path
// calls it after the mutation succeeded and before publishing newIdx, so the
// first post-publish solve finds the surviving entries warm.
//
//   - Threshold tables survive per query: a dirty query's slot reverts to
//     unknown (for every target except the query's sole dirtying object —
//     a target's threshold excludes the target itself); clean slots keep
//     their bit-exact values. The epoch advances with the snapshot, ordering
//     versions without wiping entries.
//   - Idle evaluators survive whole or not at all: only when the dirty set
//     is clean for their target (no query changes, candidate skyband
//     untouched, target unchanged) — then base ranks, hit sets, and the hit
//     memo are all still exact and the evaluator is rebased onto newIdx.
//
// Old-key entries are left to age out of the LRU so in-flight solves against
// the superseded snapshot stay warm too.
func MigrateSolveCaches(oldIdx, newIdx *subdomain.Index, ds *subdomain.DirtySet) {
	if oldIdx == newIdx || !cacheEnabled.Load() {
		return
	}
	migrateThresholds(oldIdx, newIdx, ds)
	migrateEvaluators(oldIdx, newIdx, ds)
}

func migrateThresholds(oldIdx, newIdx *subdomain.Index, ds *subdomain.DirtySet) {
	slots := thresholds.entriesFor(oldIdx)
	if len(slots) == 0 {
		return
	}
	if ds.All() {
		for _, sl := range slots {
			sl.val.mu.RLock()
			n := int64(knownSlots(sl.val.state))
			sl.val.mu.RUnlock()
			mCacheEntriesInvalidated.Add(n)
		}
		return
	}
	oldEpoch, newEpoch := oldIdx.Epoch(), newIdx.Epoch()
	n := newIdx.Workload().NumQueries()
	for _, sl := range slots {
		old := sl.val
		ne := &thresholdEntry{epoch: newEpoch, state: make([]uint8, n), val: make([]float64, n)}
		old.mu.RLock()
		if old.epoch != oldEpoch {
			old.mu.RUnlock()
			continue // stale against its own snapshot; nothing worth moving
		}
		copy(ne.state, old.state)
		copy(ne.val, old.val)
		old.mu.RUnlock()
		invalidated := 0
		ds.ForEachQuery(func(j, source int) {
			if j < n && source != sl.key.target && ne.state[j] != thrUnknown {
				ne.state[j] = thrUnknown
				invalidated++
			}
		})
		retained := knownSlots(ne.state)
		if retained == 0 {
			mCacheEntriesInvalidated.Add(int64(invalidated))
			continue // nothing survived; let the new epoch fill cold
		}
		thresholds.getOrCreate(cacheKey{idx: newIdx, target: sl.key.target}, func() *thresholdEntry {
			return ne
		})
		mCacheEntriesRetained.Add(int64(retained))
		mCacheEntriesInvalidated.Add(int64(invalidated))
	}
}

func knownSlots(state []uint8) int {
	n := 0
	for _, s := range state {
		if s != thrUnknown {
			n++
		}
	}
	return n
}

func migrateEvaluators(oldIdx, newIdx *subdomain.Index, ds *subdomain.DirtySet) {
	slots := evaluators.entriesFor(oldIdx)
	if len(slots) == 0 {
		return
	}
	oldEpoch, newEpoch := oldIdx.Epoch(), newIdx.Epoch()
	for _, sl := range slots {
		e := sl.val
		if !ds.CleanForTarget(sl.key.target) {
			e.mu.Lock()
			mCacheEntriesInvalidated.Add(int64(len(e.idle)))
			e.idle = nil // they could only rebuild from scratch; free them now
			e.mu.Unlock()
			continue
		}
		e.mu.Lock()
		idle := e.idle
		e.idle = nil
		if e.epoch != oldEpoch {
			idle = nil
		}
		e.mu.Unlock()
		var moved []*ese.Evaluator
		for _, ev := range idle {
			if ev.Rebase(newIdx) {
				moved = append(moved, ev)
			}
		}
		if len(moved) == 0 {
			continue
		}
		ne := evaluators.getOrCreate(cacheKey{idx: newIdx, target: sl.key.target}, func() *evaluatorEntry {
			return &evaluatorEntry{}
		})
		ne.mu.Lock()
		if ne.epoch != newEpoch {
			ne.idle = nil
			ne.epoch = newEpoch
		}
		for _, ev := range moved {
			if len(ne.idle) >= idleEvaluatorsMax {
				break
			}
			ne.idle = append(ne.idle, ev)
		}
		mCacheEntriesRetained.Add(int64(len(ne.idle)))
		ne.mu.Unlock()
	}
}

// releaseEvaluators parks a solve's evaluators for reuse, up to the
// per-entry idle bound; overflow is simply dropped for the GC.
func releaseEvaluators(key cacheKey, pool []*ese.Evaluator) {
	if len(pool) == 0 || !cacheEnabled.Load() {
		return
	}
	e := evaluators.getOrCreate(key, func() *evaluatorEntry { return &evaluatorEntry{} })
	epoch := key.idx.Epoch()
	e.mu.Lock()
	if e.epoch != epoch {
		e.idle = nil
		e.epoch = epoch
	}
	for _, ev := range pool {
		if len(e.idle) >= idleEvaluatorsMax {
			break
		}
		// Detach the solve's context so a later epoch-forced rebuild does
		// not record spans into this finished solve's trace.
		ev.Bind(nil)
		e.idle = append(e.idle, ev)
	}
	e.mu.Unlock()
}
