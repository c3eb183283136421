package workload

import (
	"math"
	"sort"
	"time"
)

// RegionStat is one region's windowed totals. Pos is the region's 1-D
// query-space position (the representative query's first coordinate), so
// reports can place a hot region in query space.
type RegionStat struct {
	Region    uint64  `json:"region"`
	Pos       float64 `json:"pos"`
	Solves    int64   `json:"solves"`
	LoadNS    int64   `json:"load_ns"`
	Probes    int64   `json:"probes"`
	Rounds    int64   `json:"rounds"`
	ThrHits   int64   `json:"threshold_hits"`
	ThrMisses int64   `json:"threshold_misses"`
	// ThrHitRatio is ThrHits/(ThrHits+ThrMisses), 0 when no lookups landed.
	ThrHitRatio float64 `json:"threshold_hit_ratio"`
	Churn       int64   `json:"churn"`
	Commits     int64   `json:"commits"`
}

// TargetStat is one (target, op) pair's windowed totals. Target is -1 for
// multi-target operations, which have no single target to attribute to.
type TargetStat struct {
	Target      int     `json:"target"`
	Op          string  `json:"op"`
	Solves      int64   `json:"solves"`
	LoadNS      int64   `json:"load_ns"`
	Probes      int64   `json:"probes"`
	Rounds      int64   `json:"rounds"`
	ThrHits     int64   `json:"threshold_hits"`
	ThrMisses   int64   `json:"threshold_misses"`
	ThrHitRatio float64 `json:"threshold_hit_ratio"`
}

// Window describes the snapshot's sliding window.
type Window struct {
	Seconds       float64 `json:"seconds"`
	Buckets       int     `json:"buckets"`
	BucketSeconds float64 `json:"bucket_seconds"`
}

// Snapshot is a consistent-enough view of the aggregator's window: regions
// sorted hottest-first (by attributed load, then region ID for determinism),
// target pairs likewise, plus the overflow slot and the cardinality
// accounting. All slices are sorted so the JSON encoding of the same window
// is byte-identical across calls.
type Snapshot struct {
	Window       Window       `json:"window"`
	Regions      []RegionStat `json:"regions"`
	Targets      []TargetStat `json:"targets"`
	Overflow     RegionStat   `json:"overflow"`
	TrackedKeys  int64        `json:"tracked_keys"`
	MaxKeys      int          `json:"max_keys"`
	OverflowRecs int64        `json:"overflow_records"`
	DroppedKeys  int64        `json:"dropped_key_events"`
	RetiredSlots int64        `json:"retired_regions"`
}

// sum folds the slot's live buckets (periods within the window ending at p)
// into a counter array.
func (s *slot) sum(p int64, buckets int) (out [numCounters]int64, any bool) {
	lo := p - int64(buckets) + 1
	for i := range s.cells {
		c := &s.cells[i]
		cp := c.period.Load()
		if cp < lo || cp > p {
			continue
		}
		for j := range out {
			out[j] += c.c[j].Load()
		}
		any = true
	}
	return out, any
}

func ratio(h, m int64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func regionStatOf(s *slot, c [numCounters]int64) RegionStat {
	return RegionStat{
		Region:      s.key.id,
		Pos:         math.Float64frombits(s.pos.Load()),
		Solves:      c[cSolves],
		LoadNS:      c[cLoadNS],
		Probes:      c[cProbes],
		Rounds:      c[cRounds],
		ThrHits:     c[cThrHits],
		ThrMisses:   c[cThrMisses],
		ThrHitRatio: ratio(c[cThrHits], c[cThrMisses]),
		Churn:       c[cChurn],
		Commits:     c[cCommits],
	}
}

// Snapshot sums the window as of the aggregator's clock. Slots that recorded
// nothing inside the window are omitted (their lineage may still be live;
// they are just cold).
func (a *Aggregator) Snapshot() *Snapshot {
	p := a.period()
	snap := &Snapshot{
		Window: Window{
			Seconds:       float64(a.bucketNS) * float64(a.buckets) / float64(time.Second),
			Buckets:       a.buckets,
			BucketSeconds: float64(a.bucketNS) / float64(time.Second),
		},
		TrackedKeys:  a.keys.Load(),
		MaxKeys:      a.maxKeys,
		OverflowRecs: a.overflow.Load(),
		DroppedKeys:  a.dropped.Load(),
		RetiredSlots: a.retired.Load(),
	}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		for _, s := range sh.slots {
			c, any := s.sum(p, a.buckets)
			if !any {
				continue
			}
			switch s.key.kind {
			case kindRegion:
				snap.Regions = append(snap.Regions, regionStatOf(s, c))
			case kindTarget:
				snap.Targets = append(snap.Targets, TargetStat{
					Target:      int(int64(s.key.id)),
					Op:          s.key.op,
					Solves:      c[cSolves],
					LoadNS:      c[cLoadNS],
					Probes:      c[cProbes],
					Rounds:      c[cRounds],
					ThrHits:     c[cThrHits],
					ThrMisses:   c[cThrMisses],
					ThrHitRatio: ratio(c[cThrHits], c[cThrMisses]),
				})
			}
		}
		sh.mu.RUnlock()
	}
	ov, _ := a.overflowRegion.Load().sum(p, a.buckets)
	ovT, _ := a.overflowTarget.Load().sum(p, a.buckets)
	for j := range ov {
		ov[j] += ovT[j]
	}
	snap.Overflow = regionStatOf(a.overflowRegion.Load(), ov)
	sort.Slice(snap.Regions, func(i, j int) bool {
		a, b := snap.Regions[i], snap.Regions[j]
		if a.LoadNS != b.LoadNS {
			return a.LoadNS > b.LoadNS
		}
		return a.Region < b.Region
	})
	sort.Slice(snap.Targets, func(i, j int) bool {
		a, b := snap.Targets[i], snap.Targets[j]
		if a.LoadNS != b.LoadNS {
			return a.LoadNS > b.LoadNS
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Op < b.Op
	})
	return snap
}

// ChurnLeaders returns the snapshot's regions re-sorted by churn (descending,
// region ID tie-break) — the "where do writes land" view.
func (s *Snapshot) ChurnLeaders() []RegionStat {
	out := append([]RegionStat(nil), s.Regions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Churn != out[j].Churn {
			return out[i].Churn > out[j].Churn
		}
		return out[i].Region < out[j].Region
	})
	return out
}
