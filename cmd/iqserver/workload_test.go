package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iq/internal/obs/workload"
)

// workloadStatsWire decodes the fields of /v1/stats/workload the tests
// assert on.
type workloadStatsWire struct {
	Window struct {
		Seconds float64 `json:"seconds"`
		Buckets int     `json:"buckets"`
	} `json:"window"`
	Regions []struct {
		Region uint64  `json:"region"`
		Pos    float64 `json:"pos"`
		LoadNS int64   `json:"load_ns"`
		Solves int64   `json:"solves"`
	} `json:"regions"`
	Targets []struct {
		Target int    `json:"target"`
		Op     string `json:"op"`
		Solves int64  `json:"solves"`
	} `json:"targets"`
	ChurnLeaders []json.RawMessage `json:"churn_leaders"`
}

func getWorkloadStats(t *testing.T, ts *httptest.Server) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestWorkloadStatsEndpoint: after real solves the JSON view reports live
// regions and targets.
func TestWorkloadStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	workload.Default.Reset()
	for _, body := range []string{
		`{"target":5,"tau":6}`, `{"target":17,"tau":5}`, `{"target":33,"tau":4}`,
	} {
		if resp, b := postRaw(t, ts.URL+"/v1/mincost", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, b)
		}
	}

	code, body := getWorkloadStats(t, ts)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st workloadStatsWire
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats did not decode: %v\n%s", err, body)
	}
	if st.Window.Seconds <= 0 || st.Window.Buckets <= 0 {
		t.Errorf("window not reported: %+v", st.Window)
	}
	if len(st.Regions) == 0 || st.Regions[0].LoadNS <= 0 || st.Regions[0].Solves <= 0 {
		t.Fatalf("no live region stats after 3 solves: %s", body)
	}
	if len(st.Targets) != 3 {
		t.Errorf("want 3 (target, op) rows, got %d", len(st.Targets))
	}
}

// TestDebugWorkloadPage: the heatmap renders as HTML and carries the
// region rows the JSON view reports.
func TestDebugWorkloadPage(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	if resp, b := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/debug/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/workload: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type %q", ct)
	}
	page := string(body)
	for _, want := range []string{"workload heatmap", "regions (hottest first)", "targets"} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if strings.Contains(page, "DISABLED") {
		t.Error("page reports analytics disabled on a default server")
	}
}
