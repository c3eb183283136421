// Package workload attributes engine load to query-space regions. It is the
// per-region companion to the global obs registry: every solve reports which
// subdomain regions its probes touched, every mutation commit reports which
// regions its dirty set churned, and this package folds those reports into a
// sliding window of fixed time buckets so "where does the load live *right
// now*" has an answer.
//
// Like the rest of internal/obs the package is stdlib-only, and the hot path
// is deliberately cheap: a read-locked map lookup plus a handful of atomic
// adds per *region per solve* — never per probe; per-probe counts
// accumulate in worker-owned scratch upstream and arrive here
// pre-aggregated.
//
// Cardinality is bounded: at most MaxKeys distinct attribution keys are
// tracked; excess keys fold into a per-kind overflow slot, with fold events
// and rejected-key events counted, so a pathological region explosion can
// never take the process down with it.
package workload

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// OverflowRegion is the pseudo region ID of the overflow slot: records for
// keys beyond the cardinality cap are folded into it.
const OverflowRegion = math.MaxUint64

const (
	defaultWindow  = 60 * time.Second
	defaultBuckets = 6
	defaultMaxKeys = 1024
	numShards      = 8
)

// Counter slot layout inside one time-bucket cell.
const (
	cSolves = iota
	cLoadNS
	cProbes
	cRounds
	cThrHits
	cThrMisses
	cChurn
	cCommits
	numCounters
)

type keyKind uint8

const (
	kindRegion keyKind = iota
	kindTarget
)

// slotKey identifies one attribution series: a query-space region
// (kindRegion, op empty) or a (target, op) pair (kindTarget).
type slotKey struct {
	kind keyKind
	id   uint64 // region ID, or target index widened from int64
	op   string
}

// cell is one time bucket of one slot. period stamps which window period the
// counts belong to; a recorder that finds a stale stamp CASes it forward and
// zeroes the counts. The zeroing races benignly with concurrent adds at the
// bucket boundary — a handful of counts can land in the freshly reset bucket
// or be wiped with the stale one — which is acceptable for windowed metrics
// and exact under the injected test clock (no concurrency there).
type cell struct {
	period atomic.Int64
	c      [numCounters]atomic.Int64
}

// slot is one attribution series: its key, a last-writer-wins query-space
// position (Float64bits; used by the advisor's 1-D linearisation), and a
// ring of time buckets.
type slot struct {
	key   slotKey
	pos   atomic.Uint64
	cells []cell
}

type shard struct {
	mu    sync.RWMutex
	slots map[slotKey]*slot
}

// Options configures an Aggregator. Zero values take the defaults: a 60 s
// window of 6 buckets and 1024 tracked keys.
type Options struct {
	// Window is the total sliding-window span.
	Window time.Duration
	// Buckets is the number of ring buckets the window is divided into.
	Buckets int
	// MaxKeys caps distinct attribution keys (regions + target pairs).
	MaxKeys int
	// Now overrides the clock (tests inject a fake one for deterministic
	// rotation). nil means time.Now.
	Now func() time.Time
}

// Aggregator is a sharded sliding-window load map. All methods are safe for
// concurrent use.
type Aggregator struct {
	bucketNS int64
	buckets  int
	maxKeys  int
	now      func() time.Time

	keys     atomic.Int64 // tracked keys (excludes the overflow slots)
	overflow atomic.Int64 // records folded into an overflow slot
	dropped  atomic.Int64 // key-reject events (cap hit; same key may recount)
	retired  atomic.Int64 // region slots retired after repartition resets

	shards [numShards]shard

	// Pre-built overflow slots keep the over-cap path lock-free; atomic
	// pointers so Reset can swap fresh ones under concurrent recording.
	overflowRegion atomic.Pointer[slot]
	overflowTarget atomic.Pointer[slot]

	pub publisher
}

// New builds an Aggregator; see Options for defaults.
func New(opts Options) *Aggregator {
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Buckets <= 0 {
		opts.Buckets = defaultBuckets
	}
	if opts.MaxKeys <= 0 {
		opts.MaxKeys = defaultMaxKeys
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	a := &Aggregator{
		bucketNS: int64(opts.Window) / int64(opts.Buckets),
		buckets:  opts.Buckets,
		maxKeys:  opts.MaxKeys,
		now:      opts.Now,
	}
	if a.bucketNS <= 0 {
		a.bucketNS = 1
	}
	for i := range a.shards {
		a.shards[i].slots = map[slotKey]*slot{}
	}
	a.overflowRegion.Store(a.newSlot(slotKey{kind: kindRegion, id: OverflowRegion}))
	a.overflowTarget.Store(a.newSlot(slotKey{kind: kindTarget, id: OverflowRegion, op: "overflow"}))
	return a
}

// Default is the process-wide aggregator the engine hooks feed.
var Default = New(Options{})

func (a *Aggregator) newSlot(k slotKey) *slot {
	return &slot{key: k, cells: make([]cell, a.buckets)}
}

func shardOf(k slotKey) int {
	h := k.id*0x9e3779b97f4a7c15 + uint64(k.kind)
	for i := 0; i < len(k.op); i++ {
		h = (h ^ uint64(k.op[i])) * 0x100000001b3
	}
	return int(h % numShards)
}

// getSlot returns the slot for key k, creating it if the cardinality budget
// allows and otherwise returning the kind's overflow slot.
func (a *Aggregator) getSlot(k slotKey) *slot {
	sh := &a.shards[shardOf(k)]
	sh.mu.RLock()
	s := sh.slots[k]
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	if s = sh.slots[k]; s != nil {
		sh.mu.Unlock()
		return s
	}
	if a.keys.Load() >= int64(a.maxKeys) {
		sh.mu.Unlock()
		a.dropped.Add(1)
		a.overflow.Add(1)
		if k.kind == kindRegion {
			return a.overflowRegion.Load()
		}
		return a.overflowTarget.Load()
	}
	s = a.newSlot(k)
	sh.slots[k] = s
	a.keys.Add(1)
	sh.mu.Unlock()
	return s
}

// bucket returns the slot's cell for period p, rotating it if the cell still
// holds an older period's counts.
func (s *slot) bucket(p int64) *cell {
	c := &s.cells[int(uint64(p)%uint64(len(s.cells)))]
	for {
		old := c.period.Load()
		if old == p {
			return c
		}
		if c.period.CompareAndSwap(old, p) {
			for i := range c.c {
				c.c[i].Store(0)
			}
			return c
		}
	}
}

func (a *Aggregator) period() int64 { return a.now().UnixNano() / a.bucketNS }

// RegionSample is one region's share of a solve, pre-aggregated by the
// solver's worker scratch: probe count and threshold-cache traffic that
// landed in the region, plus the region's query-space position (the
// representative query's first coordinate) for the advisor's linearisation.
type RegionSample struct {
	Region    uint64
	Pos       float64
	Probes    int64
	ThrHits   int64
	ThrMisses int64
}

// RecordSolve attributes one finished solve: the full profile to the
// (target, op) series, and the probe-weighted share of the wall time to each
// touched region. Latency attribution is proportional to probes — a region
// that drew half the solve's probes is charged half its wall time — which
// keeps the distribution deterministic and order-independent. Rounds are
// charged once per touched region (a round visits every unhit query). A
// sample carrying Region == OverflowRegion is the solver's pre-folded tail
// (regions beyond its per-solve reporting cap) and lands on the overflow
// slot directly — coarsened, never dropped.
func (a *Aggregator) RecordSolve(op string, target int, wall time.Duration, rounds, probes, thrHits, thrMisses int64, regions []RegionSample) {
	p := a.period()
	ts := a.getSlot(slotKey{kind: kindTarget, id: uint64(int64(target)), op: op})
	tc := ts.bucket(p)
	tc.c[cSolves].Add(1)
	tc.c[cLoadNS].Add(wall.Nanoseconds())
	tc.c[cProbes].Add(probes)
	tc.c[cRounds].Add(rounds)
	tc.c[cThrHits].Add(thrHits)
	tc.c[cThrMisses].Add(thrMisses)
	var totalProbes int64
	for i := range regions {
		totalProbes += regions[i].Probes
	}
	if totalProbes <= 0 {
		return
	}
	wallNS := wall.Nanoseconds()
	for i := range regions {
		r := &regions[i]
		var s *slot
		if r.Region == OverflowRegion {
			s = a.overflowRegion.Load()
			a.overflow.Add(1)
		} else {
			s = a.getSlot(slotKey{kind: kindRegion, id: r.Region})
			s.pos.Store(math.Float64bits(r.Pos))
		}
		c := s.bucket(p)
		c.c[cSolves].Add(1)
		c.c[cLoadNS].Add(wallNS * r.Probes / totalProbes)
		c.c[cProbes].Add(r.Probes)
		c.c[cRounds].Add(rounds)
		if r.ThrHits != 0 {
			c.c[cThrHits].Add(r.ThrHits)
		}
		if r.ThrMisses != 0 {
			c.c[cThrMisses].Add(r.ThrMisses)
		}
	}
}

// ChurnSample is one region's share of a mutation commit's dirty set.
type ChurnSample struct {
	Region uint64
	Pos    float64
	Dirty  int64
}

// RecordCommit attributes one published mutation's dirty-set churn to the
// regions holding the dirtied queries.
func (a *Aggregator) RecordCommit(regions []ChurnSample) {
	p := a.period()
	for i := range regions {
		r := &regions[i]
		s := a.getSlot(slotKey{kind: kindRegion, id: r.Region})
		s.pos.Store(math.Float64bits(r.Pos))
		c := s.bucket(p)
		c.c[cChurn].Add(r.Dirty)
		c.c[cCommits].Add(1)
	}
}

// RecordCommitAll attributes a whole-workload invalidation (a dirty set in
// "everything" mode) to the overflow slot: per-region attribution would be
// meaningless, but the churn volume still counts.
func (a *Aggregator) RecordCommitAll(dirty int64) {
	c := a.overflowRegion.Load().bucket(a.period())
	c.c[cChurn].Add(dirty)
	c.c[cCommits].Add(1)
	a.overflow.Add(1)
}

// RetireRegions drops the slots of regions whose lineage a repartition
// terminated (see subdomain.TakeRegionResets). Their IDs are never minted
// again, so dropping the slot both frees cardinality budget and guarantees
// stale counts cannot be misread as belonging to a live region.
func (a *Aggregator) RetireRegions(ids []uint64) {
	for _, id := range ids {
		k := slotKey{kind: kindRegion, id: id}
		sh := &a.shards[shardOf(k)]
		sh.mu.Lock()
		if _, ok := sh.slots[k]; ok {
			delete(sh.slots, k)
			a.keys.Add(-1)
			a.retired.Add(1)
		}
		sh.mu.Unlock()
	}
}

// Reset drops every slot and zeroes the accounting counters. Benchmarks and
// the offline analyzer use it to start from a clean window.
func (a *Aggregator) Reset() {
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		sh.slots = map[slotKey]*slot{}
		sh.mu.Unlock()
	}
	a.keys.Store(0)
	a.overflow.Store(0)
	a.dropped.Store(0)
	a.retired.Store(0)
	a.overflowRegion.Store(a.newSlot(slotKey{kind: kindRegion, id: OverflowRegion}))
	a.overflowTarget.Store(a.newSlot(slotKey{kind: kindTarget, id: OverflowRegion, op: "overflow"}))
}
