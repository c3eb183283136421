package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanWithoutTraceIsNil(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "solve")
	if sp != nil {
		t.Fatalf("expected nil span without a trace in context, got %+v", sp)
	}
	if got != ctx {
		t.Fatalf("expected unchanged context on the no-trace fast path")
	}
	// Nil-safe methods must not panic.
	sp.SetAttr("k", 1)
	sp.End()
}

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("mincost", 0)
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %v, want the attached trace", got)
	}

	ctx1, solve := StartSpan(ctx, "solve")
	ctx2, round := StartSpan(ctx1, "round")
	_, probe := StartSpan(ctx2, "probe")
	probe.SetAttr("query", 7)
	probe.End()
	round.End()
	// A sibling of round under solve.
	_, round2 := StartSpan(ctx1, "round")
	round2.End()
	solve.End()

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	names := map[int64]string{}
	for _, s := range spans {
		names[s.id] = s.name
	}
	for _, s := range spans {
		switch s.name {
		case "solve":
			if s.parent != 0 {
				t.Errorf("solve should be top-level, parent=%d", s.parent)
			}
		case "round":
			if names[s.parent] != "solve" {
				t.Errorf("round parent = %q, want solve", names[s.parent])
			}
		case "probe":
			if names[s.parent] != "round" {
				t.Errorf("probe parent = %q, want round", names[s.parent])
			}
			if len(s.attrs) != 1 || s.attrs[0].Key != "query" {
				t.Errorf("probe attrs = %+v", s.attrs)
			}
		}
	}
}

func TestSpanBufferBound(t *testing.T) {
	tr := NewTrace("solve", 2)
	ctx := WithTrace(context.Background(), tr)
	ctx1, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx1, "b")
	// Third span must be refused.
	ctx3, c := StartSpan(ctx1, "c")
	if c != nil {
		t.Fatalf("expected nil span past the buffer bound")
	}
	if ctx3 != ctx1 {
		t.Fatalf("refused span must not re-scope the context")
	}
	b.End()
	a.End()
	if n := tr.SpanCount(); n != 2 {
		t.Fatalf("SpanCount = %d, want 2", n)
	}
	if d := tr.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
}

// TestConcurrentTraceHammer drives many goroutines recording spans into one
// trace; run under -race this checks the commit path and the bound
// accounting for data races.
func TestConcurrentTraceHammer(t *testing.T) {
	const workers = 16
	const perWorker = 200
	const maxSpans = workers * perWorker / 2 // force drops too

	tr := NewTrace("hammer", maxSpans)
	root := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, outer := StartSpan(root, "worker")
			outer.SetAttr("worker", w)
			for i := 0; i < perWorker-1; i++ {
				_, sp := StartSpan(ctx, "probe")
				sp.SetAttr("i", i)
				sp.End()
			}
			outer.End()
		}(w)
	}
	wg.Wait()

	total := workers * perWorker
	if got := tr.SpanCount(); got != maxSpans {
		t.Fatalf("SpanCount = %d, want %d", got, maxSpans)
	}
	if got := tr.Dropped(); got != int64(total-maxSpans) {
		t.Fatalf("Dropped = %d, want %d", got, total-maxSpans)
	}
	// Export paths must tolerate a concurrent-built trace.
	var sb strings.Builder
	if err := WriteTraceEvent(&sb, tr); err != nil {
		t.Fatalf("WriteTraceEvent: %v", err)
	}
	if _, err := ParseTraceEvent([]byte(sb.String())); err != nil {
		t.Fatalf("ParseTraceEvent on hammer output: %v", err)
	}
}

func TestTraceDuration(t *testing.T) {
	tr := &Trace{id: "x", name: "d", start: time.Unix(100, 0), max: 10}
	tr.spans = append(tr.spans, &Span{
		tr: tr, id: 1, name: "a",
		start: tr.start.Add(10 * time.Millisecond),
		dur:   30 * time.Millisecond,
	})
	if got, want := tr.Duration(), 40*time.Millisecond; got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
}
