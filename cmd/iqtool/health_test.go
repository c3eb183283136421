package main

import (
	"strings"
	"testing"
	"time"

	"iq/internal/obs/history"
	"iq/internal/obs/slo"
)

func watchFixture() (sloPayload, historyPayload) {
	sp := sloPayload{
		Objectives: []slo.ObjectiveStatus{{
			Objective:       slo.Objective{Name: "latency-mincost", Target: 0.99},
			BudgetRemaining: -0.5,
			Windows: []slo.WindowStatus{
				{Window: "5m", Burn: 100}, {Window: "30m", Burn: 100},
				{Window: "1h", Burn: 100}, {Window: "6h", Burn: 100},
			},
			Rules: []slo.RuleStatus{
				{Name: "fast", Severity: "page", Firing: true},
				{Name: "slow", Severity: "ticket"},
			},
		}},
		Firing: []slo.RuleStatus{{Name: "latency-mincost/fast", Severity: "page", Firing: true}},
	}
	hp := historyPayload{
		IntervalSeconds: 10,
		Samples: []history.Sample{
			{UnixMs: 1000, Dur: 10, Points: []history.Point{
				{Name: "iq_http_responses_total", Labels: `{class="2xx",route="/v1/mincost"}`, Kind: "counter", Rate: 5},
				{Name: "iq_solve_duration_seconds", Labels: `{op="mincost"}`, Kind: "histogram", P99: 0.002},
			}},
			{UnixMs: 11000, Dur: 10, Points: []history.Point{
				{Name: "iq_http_responses_total", Labels: `{class="2xx",route="/v1/mincost"}`, Kind: "counter", Rate: 20},
				{Name: "iq_http_responses_total", Labels: `{class="5xx",route="/v1/mincost"}`, Kind: "counter", Rate: 2},
				{Name: "iq_solve_duration_seconds", Labels: `{op="mincost"}`, Kind: "histogram", P99: 0.008},
				{Name: "iq_solve_duration_seconds", Labels: `{op="maxhit"}`, Kind: "histogram", P99: 0.001},
			}},
		},
	}
	return sp, hp
}

func TestRenderWatchFrame(t *testing.T) {
	sp, hp := watchFixture()
	var b strings.Builder
	renderWatch(&b, sp, hp, time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	out := b.String()

	for _, want := range []string{
		"iq health @ 12:00:00",
		"2 samples",
		"interval 10s",
		"ALERTS: latency-mincost/fast(page)",
		"latency-mincost",
		"99.00%", // target
		"-50.0%", // overspent budget
		"fast!",  // firing rule marker on the objective row
		"req/s",
		"solve p99 maxhit",
		"solve p99 mincost",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	// Sparkline shape: the second interval's rate dominates, so the req/s
	// line ends on the tallest glyph.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "req/s") {
			if !strings.HasSuffix(strings.TrimRight(line, " "), string(watchSpark[len(watchSpark)-1])) {
				t.Fatalf("req/s sparkline does not peak on the busy interval: %q", line)
			}
		}
	}
}

func TestRenderWatchQuietFrame(t *testing.T) {
	sp, hp := watchFixture()
	sp.Firing = nil
	sp.Objectives[0].Rules[0].Firing = false
	sp.Objectives[0].BudgetRemaining = 1
	var b strings.Builder
	renderWatch(&b, sp, hp, time.Unix(0, 0).UTC())
	out := b.String()
	if !strings.Contains(out, "no alerts firing") {
		t.Fatalf("quiet frame missing the all-clear line:\n%s", out)
	}
	if strings.Contains(out, "ALERTS:") || strings.Contains(out, "fast!") {
		t.Fatalf("quiet frame still shows alert markers:\n%s", out)
	}
}

func TestWatchSeries(t *testing.T) {
	_, hp := watchFixture()
	reqRate, solveP99 := watchSeries(hp.Samples)
	if len(reqRate) != 2 || reqRate[0] != 5 || reqRate[1] != 22 {
		t.Fatalf("request rate fold wrong: %v", reqRate)
	}
	if got := solveP99["mincost"]; len(got) != 2 || got[0] != 0.002 || got[1] != 0.008 {
		t.Fatalf("mincost p99 fold wrong: %v", got)
	}
	// maxhit only appears in the second interval; the first slot stays zero.
	if got := solveP99["maxhit"]; len(got) != 2 || got[0] != 0 || got[1] != 0.001 {
		t.Fatalf("maxhit p99 fold wrong: %v", got)
	}
}

func TestLabelValue(t *testing.T) {
	labels := `{op="mincost",route="/v1/mincost"}`
	if v := labelValue(labels, "op"); v != "mincost" {
		t.Fatalf("labelValue op = %q", v)
	}
	if v := labelValue(labels, "route"); v != "/v1/mincost" {
		t.Fatalf("labelValue route = %q", v)
	}
	if v := labelValue(labels, "missing"); v != "" {
		t.Fatalf("labelValue missing = %q", v)
	}
}
