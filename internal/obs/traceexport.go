// Trace exporters and a matching validator.
//
// WriteTraceEvent renders a Trace in the Chrome trace_event JSON format
// ("X" complete events, microsecond timestamps), which loads directly in
// Perfetto (ui.perfetto.dev) and chrome://tracing. The viewers nest events
// on a thread track purely by interval containment, so spans that overlap
// without nesting — the solves of concurrent batch items — must land on
// different tids. assignLanes does that: a greedy sweep that keeps
// every tid's intervals laminar (nested or disjoint), preferring the
// parent's lane so sequential call chains render as one deep stack.
//
// WriteTree renders the same spans as an indented text tree for terminals
// and log files. ParseTraceEvent/ValidateTraceEvent is the read side, used
// by iqtool and the CI trace check to assert a downloaded trace is
// well-formed and actually nests.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// traceEvent is one Chrome trace_event entry. Field order here is the JSON
// field order (encoding/json emits struct fields in declaration order),
// which the golden test pins.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceEventFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// exportSpan pairs a span with its microsecond interval; the lane sweep and
// both exporters work off these so rounding happens exactly once.
type exportSpan struct {
	span *Span
	ts   int64 // µs since trace start
	dur  int64 // µs
	lane int64
}

func exportSpans(t *Trace) []exportSpan {
	spans := t.snapshot()
	out := make([]exportSpan, len(spans))
	for i, s := range spans {
		ts := s.start.Sub(t.start).Microseconds()
		if ts < 0 {
			ts = 0
		}
		dur := s.dur.Microseconds()
		if dur < 0 {
			dur = 0
		}
		out[i] = exportSpan{span: s, ts: ts, dur: dur}
	}
	return out
}

// assignLanes gives every span a tid such that intervals sharing a tid are
// laminar — each pair either disjoint or nested — which is the property the
// trace viewers need to reconstruct the stack. Spans arrive sorted by
// (start, -dur, id); for each we try the parent's lane first (a sequential
// call chain stays on one track), then any lane whose innermost open
// interval contains us, then a fresh lane. Lanes are 1-based tids.
func assignLanes(spans []exportSpan) {
	type lane struct {
		open []int64 // stack of open interval end times (µs)
	}
	var lanes []*lane
	laneOf := make(map[int64]int, len(spans)) // span id -> lane index

	fits := func(l *lane, ts, end int64) bool {
		for len(l.open) > 0 && l.open[len(l.open)-1] <= ts {
			l.open = l.open[:len(l.open)-1]
		}
		return len(l.open) == 0 || l.open[len(l.open)-1] >= end
	}

	for i := range spans {
		s := &spans[i]
		end := s.ts + s.dur
		placed := -1
		if p, ok := laneOf[s.span.parent]; ok && fits(lanes[p], s.ts, end) {
			placed = p
		}
		if placed < 0 {
			for j, l := range lanes {
				if fits(l, s.ts, end) {
					placed = j
					break
				}
			}
		}
		if placed < 0 {
			lanes = append(lanes, &lane{})
			placed = len(lanes) - 1
		}
		lanes[placed].open = append(lanes[placed].open, end)
		laneOf[s.span.id] = placed
		s.lane = int64(placed) + 1
	}
}

// attrValue normalizes a span attribute for JSON/text output: durations
// render as their String form, common scalars pass through, anything else
// is stringified.
func attrValue(v any) any {
	switch x := v.(type) {
	case time.Duration:
		return x.String()
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64,
		float32, float64, bool, string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

// WriteTraceEvent writes t as Chrome trace_event JSON, loadable in Perfetto
// or chrome://tracing. Output is deterministic for a given span set: spans
// are sorted, struct fields emit in fixed order, and args keys are sorted by
// encoding/json.
func WriteTraceEvent(w io.Writer, t *Trace) error {
	spans := exportSpans(t)
	assignLanes(spans)

	file := traceEventFile{
		TraceEvents:     make([]traceEvent, 0, len(spans)+1),
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"trace_id":   t.ID(),
			"trace_name": t.Name(),
			"dropped":    t.Dropped(),
		},
	}
	// Process-name metadata event so the viewer labels the track group.
	file.TraceEvents = append(file.TraceEvents, traceEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "iq " + t.Name()},
	})
	for _, es := range spans {
		ev := traceEvent{
			Name: es.span.name, Cat: "iq", Ph: "X",
			Ts: es.ts, Dur: es.dur, Pid: 1, Tid: es.lane,
		}
		if len(es.span.attrs) > 0 {
			ev.Args = make(map[string]any, len(es.span.attrs))
			for _, a := range es.span.attrs {
				ev.Args[a.Key] = attrValue(a.Value)
			}
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// WriteTree writes t as an indented text tree: one line per span with its
// duration and attributes, children ordered by start time. Spans whose
// parent was dropped by the buffer bound surface as roots, so the output
// stays complete even for truncated traces.
func WriteTree(w io.Writer, t *Trace) error {
	spans := exportSpans(t)
	children := make(map[int64][]int, len(spans))
	byID := make(map[int64]int, len(spans))
	for i, es := range spans {
		byID[es.span.id] = i
	}
	var roots []int
	for i, es := range spans {
		p := es.span.parent
		if _, ok := byID[p]; p != 0 && ok {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i) // top-level, or parent dropped/still open
		}
	}

	if _, err := fmt.Fprintf(w, "trace %s (%s): %d spans, %d dropped, %s\n",
		t.ID(), t.Name(), len(spans), t.Dropped(), t.Duration().Round(time.Microsecond)); err != nil {
		return err
	}
	var walk func(idx, depth int) error
	walk = func(idx, depth int) error {
		es := spans[idx]
		for i := 0; i < depth; i++ {
			if _, err := io.WriteString(w, "  "); err != nil {
				return err
			}
		}
		line := fmt.Sprintf("%s %s", es.span.name, time.Duration(es.dur)*time.Microsecond)
		for _, a := range es.span.attrs {
			line += fmt.Sprintf(" %s=%v", a.Key, attrValue(a.Value))
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
		for _, c := range children[es.span.id] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 1); err != nil {
			return err
		}
	}
	return nil
}

// ParsedTrace summarizes a parsed trace_event file for validation: how many
// complete events it holds, the deepest nesting the viewer would render, and
// per-name event counts.
type ParsedTrace struct {
	Events   int            // "X" complete events
	MaxDepth int            // deepest containment nesting across all tids
	Names    map[string]int // complete-event name -> count
	TraceID  string         // metadata.trace_id when present
}

// ParseTraceEvent parses and validates Chrome trace_event JSON as produced
// by WriteTraceEvent. It checks structural validity (every complete event
// has a name and non-negative ts/dur) and that each tid's intervals are
// laminar — nested or disjoint — which is what makes the viewer's stacking
// meaningful. Returns a summary for further assertions.
func ParseTraceEvent(data []byte) (*ParsedTrace, error) {
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int64  `json:"pid"`
			Tid  int64  `json:"tid"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("trace_event: invalid JSON: %w", err)
	}
	p := &ParsedTrace{Names: make(map[string]int)}
	if id, ok := file.Metadata["trace_id"].(string); ok {
		p.TraceID = id
	}

	type iv struct {
		name    string
		ts, end int64
	}
	byTid := make(map[[2]int64][]iv)
	for i, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("trace_event: event %d: empty name", i)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("trace_event: event %q: negative ts/dur", ev.Name)
		}
		p.Events++
		p.Names[ev.Name]++
		key := [2]int64{ev.Pid, ev.Tid}
		byTid[key] = append(byTid[key], iv{name: ev.Name, ts: ev.Ts, end: ev.Ts + ev.Dur})
	}

	for tid, ivs := range byTid {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].ts != ivs[j].ts {
				return ivs[i].ts < ivs[j].ts
			}
			return ivs[i].end > ivs[j].end
		})
		var stack []int64 // open interval ends
		for _, v := range ivs {
			for len(stack) > 0 && stack[len(stack)-1] <= v.ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && stack[len(stack)-1] < v.end {
				return nil, fmt.Errorf("trace_event: tid %d: event %q [%d,%d] overlaps enclosing interval ending %d without nesting",
					tid[1], v.name, v.ts, v.end, stack[len(stack)-1])
			}
			stack = append(stack, v.end)
			if len(stack) > p.MaxDepth {
				p.MaxDepth = len(stack)
			}
		}
	}
	return p, nil
}

// ValidateTraceEvent parses data and additionally requires at least one of
// each of the given span names and a minimum nesting depth. It is the shared
// assertion behind iqtool's -trace-server mode and scripts/tracecheck.sh.
func ValidateTraceEvent(data []byte, wantNames []string, minDepth int) (*ParsedTrace, error) {
	p, err := ParseTraceEvent(data)
	if err != nil {
		return nil, err
	}
	for _, n := range wantNames {
		if p.Names[n] == 0 {
			return nil, fmt.Errorf("trace_event: missing expected span %q (have %d events)", n, p.Events)
		}
	}
	if p.MaxDepth < minDepth {
		return nil, fmt.Errorf("trace_event: nesting depth %d < required %d", p.MaxDepth, minDepth)
	}
	return p, nil
}
