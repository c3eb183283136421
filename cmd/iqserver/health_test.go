package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iq/internal/obs/history"
	"iq/internal/obs/slo"
)

// newHealthServer builds a server with the api handle exposed so tests can
// drive the sampler deterministically with TickNow instead of waiting for
// the production ticker (which startHealth — never called here — would run).
func newHealthServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	api := newServer(logger, cfg)
	ts := httptest.NewServer(api.handler())
	t.Cleanup(func() {
		ts.Close()
		api.closeHealth(logger)
	})
	return api, ts
}

// tick takes one interval sample; the sleep guarantees a distinct UnixMs so
// the ring accepts the sample.
func tick(api *server) {
	time.Sleep(3 * time.Millisecond)
	api.sampler.TickNow()
}

func getJSONBody(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

type historyWire struct {
	IntervalSeconds float64          `json:"interval_seconds"`
	Samples         []history.Sample `json:"samples"`
}

type sloWire struct {
	Objectives []slo.ObjectiveStatus `json:"objectives"`
	Firing     []slo.RuleStatus      `json:"firing"`
}

func TestHistoryEndpoint(t *testing.T) {
	api, ts := newHealthServer(t, defaultConfig())
	loadDataset(t, ts, 100, 40)
	api.sampler.TickNow() // baseline
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	tick(api)

	var hw historyWire
	if resp := getJSONBody(t, ts.URL+"/v1/stats/history", &hw); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats/history status %d", resp.StatusCode)
	}
	if hw.IntervalSeconds != defaultConfig().historyInterval.Seconds() {
		t.Fatalf("history metadata wrong: %+v", hw)
	}
	if len(hw.Samples) == 0 {
		t.Fatalf("no samples after a tick")
	}
	var sawSolve, sawHTTP bool
	for _, sm := range hw.Samples {
		for _, p := range sm.Points {
			switch p.Name {
			case "iq_solve_duration_seconds":
				sawSolve = true
			case "iq_http_responses_total":
				sawHTTP = true
			}
		}
	}
	if !sawSolve || !sawHTTP {
		t.Fatalf("interval missing activity: solve=%v http=%v", sawSolve, sawHTTP)
	}

	// ?family= narrows the points to the named families.
	var fw historyWire
	getJSONBody(t, ts.URL+"/v1/stats/history?family=iq_solve_duration_seconds", &fw)
	for _, sm := range fw.Samples {
		for _, p := range sm.Points {
			if p.Name != "iq_solve_duration_seconds" {
				t.Fatalf("family filter leaked %q", p.Name)
			}
		}
	}

	// A malformed window is a 400, not a silent full dump.
	if resp := getJSONBody(t, ts.URL+"/v1/stats/history?window=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus window status %d, want 400", resp.StatusCode)
	}
}

func TestHealthEndpointsDisabled(t *testing.T) {
	cfg := defaultConfig()
	cfg.historyInterval = 0
	_, ts := newHealthServer(t, cfg)
	for _, path := range []string{"/v1/stats/history", "/v1/stats/slo", "/debug/health"} {
		if resp := getJSONBody(t, ts.URL+path, nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with health disabled: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestSLOBurnAlertReachesEndpoint drives solves against an impossibly tight
// latency target: every solve is a bad event, the burn rate saturates, and
// the alert must surface in /v1/stats/slo and the alert counter in /metrics.
func TestSLOBurnAlertReachesEndpoint(t *testing.T) {
	cfg := defaultConfig()
	cfg.sloLatencyTargets = map[string]time.Duration{"mincost": time.Nanosecond}
	api, ts := newHealthServer(t, cfg)
	loadDataset(t, ts, 100, 40)
	before := scrape(t, ts.URL)

	api.sampler.TickNow() // baseline
	for i := 0; i < 3; i++ {
		if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
		tick(api)
	}

	var sw sloWire
	if resp := getJSONBody(t, ts.URL+"/v1/stats/slo", &sw); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats/slo status %d", resp.StatusCode)
	}
	var found bool
	for _, f := range sw.Firing {
		if strings.HasPrefix(f.Name, "latency-mincost/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("latency-mincost alert not firing; firing=%+v objectives=%+v", sw.Firing, sw.Objectives)
	}
	for _, o := range sw.Objectives {
		if o.Name == "latency-mincost" && o.BudgetRemaining >= 1 {
			t.Fatalf("budget untouched despite every solve bad: %+v", o)
		}
	}

	after := scrape(t, ts.URL)
	key := `iq_slo_burn_alerts_total{slo="latency-mincost",window="fast"}`
	if d := after[key] - before[key]; d < 1 {
		t.Fatalf("%s advanced by %v, want >= 1", key, d)
	}
	if _, ok := after[`iq_slo_error_budget_remaining{slo="latency-mincost"}`]; !ok {
		t.Fatalf("budget gauge missing from /metrics")
	}
}

func TestDebugHealthDashboard(t *testing.T) {
	api, ts := newHealthServer(t, defaultConfig())
	loadDataset(t, ts, 100, 40)
	api.sampler.TickNow()
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	tick(api)

	resp, err := http.Get(ts.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/health status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/debug/health Content-Type %q", ct)
	}
	page := string(body)
	for _, want := range []string{
		"engine health",
		"service objectives",
		"availability",
		"latency-mincost",
		"iq_solve_duration_seconds", // a series row made it onto the page
		string(sparkChars[0]),       // sparkline glyphs rendered
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, page)
		}
	}
}

// TestHistorySurvivesServerRestart is the server-level restart contract: a
// second server over the same data dir serves the first server's samples
// from /v1/stats/history before it has taken any of its own.
func TestHistorySurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := defaultConfig()
	cfg.historyPath = filepath.Join(dir, "history.jsonl")

	api := newServer(logger, cfg)
	ts := httptest.NewServer(api.handler())
	loadDataset(t, ts, 100, 40)
	api.sampler.TickNow()
	postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`)
	tick(api)
	first := api.sampler.Ring().Samples(time.Time{})
	if len(first) == 0 {
		t.Fatalf("no samples before restart")
	}
	ts.Close()
	api.closeHealth(logger)

	api2, ts2 := newHealthServer(t, cfg)
	var hw historyWire
	if resp := getJSONBody(t, ts2.URL+"/v1/stats/history", &hw); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart history status %d", resp.StatusCode)
	}
	// Close emits a final sample, so the second server holds at least the
	// first server's ring; the recovered prefix matches by timestamp.
	if len(hw.Samples) < len(first) {
		t.Fatalf("restart lost history: %d samples, had %d", len(hw.Samples), len(first))
	}
	if hw.Samples[0].UnixMs != first[0].UnixMs {
		t.Fatalf("recovered history diverges: first sample %d, had %d", hw.Samples[0].UnixMs, first[0].UnixMs)
	}
	// And the SLO evaluator was seeded: the budget accounting reflects the
	// pre-restart traffic without any live samples.
	objs, _ := api2.slo.Status()
	var seeded bool
	for _, o := range objs {
		if o.GoodEvents+o.BadEvents > 0 {
			seeded = true
		}
	}
	if !seeded {
		t.Fatalf("SLO evaluator not seeded from recovered history: %+v", objs)
	}
}

// TestStatsReportsVersion: /v1/stats carries the build identity.
func TestStatsReportsVersion(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	var stats map[string]interface{}
	if resp := getJSONBody(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	v, _ := stats["version"].(string)
	gv, _ := stats["go_version"].(string)
	if v == "" || gv == "" {
		t.Fatalf("stats missing build identity: version=%q go_version=%q", v, gv)
	}
	// And /metrics carries the same identity as iq_build_info.
	vals := scrape(t, ts.URL)
	found := false
	for key := range vals {
		if strings.HasPrefix(key, "iq_build_info{") && strings.Contains(key, `version="`+v+`"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("iq_build_info for version %q missing from /metrics", v)
	}
}
