package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval. Spans of one operation share Trace; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the whole run. A nil *recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span now; a parent of 0 starts a new trace.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, time.Now(), time.Time{})
}

// close ends span id now.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
}

// add records a span with known bounds (a zero end leaves it open).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	trace := id
	if parent != 0 {
		trace = r.spans[parent-1].Trace
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.Sub(r.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.t0).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return id
}

// timed runs fn inside a child span of parent and returns its duration.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.open(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.close(id)
	return d
}

// spanSummary aggregates every span of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	P50MS   float64 `json:"p50_ms"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary reports, per span name, the count, median and total duration,
// and the total self time: each span's duration minus the part of it that
// its children cover.
func (r *recorder) summary() map[string]spanSummary {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	out := map[string]spanSummary{}
	for _, s := range r.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMS += ms(s.dur())
		sum.SelfMS += ms(s.dur() - covered(s, children[s.ID]))
		out[s.Name] = sum
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	for name, sum := range out {
		sum.P50MS = median(durs[name])
		out[name] = sum
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// write saves every span as one JSON document.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
