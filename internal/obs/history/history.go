// Package history is the engine's memory of its own telemetry: a background
// sampler (sampler.go) diffs the obs registry every interval and stores the
// result as self-contained interval aggregates — counter deltas and rates,
// gauge readings, histogram bucket deltas with interval quantile estimates —
// in a bounded in-memory ring, persisted to an append-only journal
// (journal.go) so the series survive restarts.
//
// Samples are interval aggregates rather than raw cumulative values on
// purpose: a restart resets every counter in the process, but an interval
// delta is self-contained, so merging the journal tail recorded before a
// crash with samples taken after it needs no reconciliation — the series
// simply has a gap where the process was down.
package history

import (
	"sync"
	"time"
)

// Point is one series' contribution to one interval sample. Kind selects the
// meaningful fields. Encoding is sparse: series with nothing to report for an
// interval (zero counter delta, unchanged gauge, idle histogram) are omitted
// from the sample; consumers carry gauge readings forward.
type Point struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"` // rendered `{k="v",...}` or ""
	Kind   string `json:"kind"`             // "counter" | "gauge" | "histogram"

	// Counter: increase over the interval, and Rate = Delta / dt.
	Delta float64 `json:"delta,omitempty"`
	Rate  float64 `json:"rate,omitempty"`

	// Gauge: reading at sample time.
	Value float64 `json:"value,omitempty"`

	// Histogram: interval observation count, interval sum, and per-bucket
	// interval counts (parallel to Uppers, with one trailing overflow entry
	// for observations above the last bound). P50/P90/P99 are interval
	// quantile estimates interpolated from Buckets.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Uppers  []float64 `json:"uppers,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
	P50     float64   `json:"p50,omitempty"`
	P90     float64   `json:"p90,omitempty"`
	P99     float64   `json:"p99,omitempty"`
}

// Sample is one interval's aggregate across every family in the registry.
type Sample struct {
	// UnixMs is the interval's end instant, Unix milliseconds.
	UnixMs int64 `json:"t"`
	// Dur is the seconds the interval covers (wall time since the previous
	// sample or baseline).
	Dur float64 `json:"dt"`
	// Points holds the series with activity this interval, sorted by
	// name+labels (the gather order).
	Points []Point `json:"points,omitempty"`
}

// End returns the sample's end instant.
func (s Sample) End() time.Time { return time.UnixMilli(s.UnixMs) }

// Ring is a bounded, retention-limited, chronological sample buffer. All
// methods are safe for concurrent use; readers get copies of the slice
// spine (samples themselves are never mutated after append).
type Ring struct {
	mu        sync.Mutex
	samples   []Sample
	retention time.Duration
	max       int
}

// NewRing returns a ring keeping at most max samples spanning at most
// retention (whichever bound bites first).
func NewRing(retention time.Duration, max int) *Ring {
	if max < 1 {
		max = 1
	}
	return &Ring{retention: retention, max: max}
}

// Append adds s (which must be newer than the current tail; out-of-order
// appends are dropped) and evicts anything past the capacity or retention
// bound.
func (r *Ring) Append(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.samples); n > 0 && s.UnixMs <= r.samples[n-1].UnixMs {
		return
	}
	r.samples = append(r.samples, s)
	r.evictLocked()
}

func (r *Ring) evictLocked() {
	drop := 0
	if len(r.samples) > r.max {
		drop = len(r.samples) - r.max
	}
	if r.retention > 0 && len(r.samples) > 0 {
		floor := r.samples[len(r.samples)-1].UnixMs - r.retention.Milliseconds()
		for drop < len(r.samples)-1 && r.samples[drop].UnixMs < floor {
			drop++
		}
	}
	if drop > 0 {
		// Copy down so the evicted spine is reclaimable (readers hold copies).
		r.samples = append(r.samples[:0:0], r.samples[drop:]...)
	}
}

// Samples returns the buffered samples ending at or after since (zero time =
// everything), oldest first.
func (r *Ring) Samples(since time.Time) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := 0
	if !since.IsZero() {
		floor := since.UnixMilli()
		for lo < len(r.samples) && r.samples[lo].UnixMs < floor {
			lo++
		}
	}
	return append([]Sample(nil), r.samples[lo:]...)
}

// Len returns the number of buffered samples.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Quantile estimates the q-quantile (0 < q < 1) of an interval histogram by
// linear interpolation inside the bucket containing the target rank, the
// standard fixed-bucket estimator. Observations in the overflow bucket pin
// the estimate to the last finite bound (there is no upper edge to
// interpolate toward). Returns 0 when the interval saw no observations.
func Quantile(q float64, uppers []float64, buckets []int64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || len(uppers) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, up := range uppers {
		if i < len(buckets) {
			cum += buckets[i]
		}
		if float64(cum) >= rank {
			inBucket := buckets[i]
			if inBucket == 0 {
				return up
			}
			frac := (rank - float64(cum-inBucket)) / float64(inBucket)
			return lower + frac*(up-lower)
		}
		lower = up
	}
	// Target rank lands in the overflow bucket.
	return uppers[len(uppers)-1]
}
