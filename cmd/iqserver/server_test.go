package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iq"
	"iq/internal/dataset"
)

func testServer(t *testing.T) *httptest.Server {
	return testServerCfg(t, defaultConfig())
}

func testServerCfg(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(newServer(logger, cfg).handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func loadDataset(t *testing.T, ts *httptest.Server, n, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	objs := dataset.Objects(dataset.Independent, n, 3, rng)
	queries := dataset.UNQueries(m, 3, 5, true, rng)
	var req loadRequest
	for _, o := range objs {
		req.Objects = append(req.Objects, iq.Vector(o))
	}
	for _, q := range queries {
		req.Queries = append(req.Queries, queryWire{ID: q.ID, K: q.K, Point: q.Point})
	}
	resp, body := post(t, ts.URL+"/v1/load", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
}

// statsWire decodes the numeric fields of /v1/stats, skipping the nested
// counters object.
type statsWire struct {
	Objects    int `json:"objects"`
	Queries    int `json:"queries"`
	Candidates int `json:"candidates"`
	Epoch      int `json:"epoch"`
}

func TestLoadAndStats(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsWire
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 100 || stats.Queries != 40 || stats.Candidates == 0 {
		t.Errorf("stats %+v", stats)
	}
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

func TestMinCostEndpoint(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	resp, body := post(t, ts.URL+"/v1/mincost", iqRequest{Target: 5, Tau: 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mincost: %d %s", resp.StatusCode, body)
	}
	var res iqResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Hits < 6 || len(res.Strategy) != 3 {
		t.Errorf("result %+v", res)
	}
	// Evaluate the returned strategy: must reproduce the hit count.
	resp, body = post(t, ts.URL+"/v1/evaluate", strategyRequest{Target: 5, Strategy: res.Strategy})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, body)
	}
	var ev map[string]int
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev["hits"] != res.Hits {
		t.Errorf("evaluate %d vs mincost %d", ev["hits"], res.Hits)
	}
	// Commit and confirm.
	resp, body = post(t, ts.URL+"/v1/commit", strategyRequest{Target: 5, Strategy: res.Strategy})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d %s", resp.StatusCode, body)
	}
}

func TestMaxHitWithOptions(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 80, 30)
	req := iqRequest{
		Target: 2,
		Budget: 0.5,
		Cost:   &costWire{Weighted: iq.Vector{1, 2, 3}},
		Frozen: []int{0},
	}
	resp, body := post(t, ts.URL+"/v1/maxhit", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxhit: %d %s", resp.StatusCode, body)
	}
	var res iqResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy[0] != 0 {
		t.Errorf("frozen attribute moved: %v", res.Strategy)
	}
	if res.Cost > 0.5+1e-9 {
		t.Errorf("over budget: %v", res.Cost)
	}
	// Expression cost variant.
	req.Cost = &costWire{Expr: "sqrt(s1^2 + s2^2 + s3^2)"}
	resp, body = post(t, ts.URL+"/v1/maxhit", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxhit expr: %d %s", resp.StatusCode, body)
	}
	// L1 variant.
	req.Cost = &costWire{Name: "l1"}
	resp, _ = post(t, ts.URL+"/v1/maxhit", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("maxhit l1 failed")
	}
}

func TestMutationEndpoints(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 50, 20)
	resp, body := post(t, ts.URL+"/v1/objects", map[string]iq.Vector{"attrs": {0.1, 0.1, 0.1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add object: %d %s", resp.StatusCode, body)
	}
	var idResp map[string]int
	json.Unmarshal(body, &idResp)
	if idResp["id"] != 50 {
		t.Errorf("id=%d", idResp["id"])
	}
	resp, body = post(t, ts.URL+"/v1/queries", queryWire{ID: 99, K: 2, Point: iq.Vector{0.3, 0.3, 0.4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add query: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/topk", queryWire{K: 3, Point: iq.Vector{0.5, 0.3, 0.2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: %d %s", resp.StatusCode, body)
	}
	var topkResp map[string][]int
	json.Unmarshal(body, &topkResp)
	if len(topkResp["ids"]) != 3 {
		t.Errorf("topk ids %v", topkResp["ids"])
	}
	// The freshly added near-dominant object must rank among the top 3.
	found := false
	for _, id := range topkResp["ids"] {
		if id == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected new object in top-3: %v", topkResp["ids"])
	}
}

func TestErrorHandling(t *testing.T) {
	ts := testServer(t)
	// No dataset yet.
	resp, _ := post(t, ts.URL+"/v1/mincost", iqRequest{Target: 0, Tau: 1})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("no-dataset status %d", resp.StatusCode)
	}
	loadDataset(t, ts, 30, 10)
	// Unreachable tau.
	resp, _ = post(t, ts.URL+"/v1/mincost", iqRequest{Target: 0, Tau: 999})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unreachable status %d", resp.StatusCode)
	}
	// Bad JSON.
	r, err := http.Post(ts.URL+"/v1/mincost", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status %d", r.StatusCode)
	}
	// Unknown field rejected.
	r, err = http.Post(ts.URL+"/v1/mincost", "application/json",
		bytes.NewReader([]byte(`{"target":0,"tau":1,"bogus":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d", r.StatusCode)
	}
	// Bad cost name.
	resp, _ = post(t, ts.URL+"/v1/mincost", iqRequest{Target: 0, Tau: 1, Cost: &costWire{Name: "bogus"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cost status %d", resp.StatusCode)
	}
	// Bad frozen index.
	resp, _ = post(t, ts.URL+"/v1/mincost", iqRequest{Target: 0, Tau: 1, Frozen: []int{99}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad frozen status %d", resp.StatusCode)
	}
	// Empty load.
	resp, _ = post(t, ts.URL+"/v1/load", loadRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty load status %d", resp.StatusCode)
	}
	// k < 1 on topk.
	resp, _ = post(t, ts.URL+"/v1/topk", queryWire{K: 0, Point: iq.Vector{1, 1, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("topk k=0 status %d", resp.StatusCode)
	}
}

func TestConcurrentReads(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 80, 30)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, `{"target":%d,"tau":4}`, g)
			resp, err := http.Post(ts.URL+"/v1/mincost", "application/json", &buf)
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// A strategy whose dimension does not match the dataset must be rejected
// with 400, not panic the handler (previously vec.Add panicked and the
// connection was dropped).
func TestStrategyDimensionMismatch(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 30, 10)
	for _, path := range []string{"/v1/commit", "/v1/evaluate"} {
		resp, body := post(t, ts.URL+path, strategyRequest{Target: 5, Strategy: iq.Vector{-0.1}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with 1-dim strategy: status %d, body %s", path, resp.StatusCode, body)
		}
	}
	// Dataset still healthy afterwards.
	resp, body := post(t, ts.URL+"/v1/evaluate", strategyRequest{Target: 5, Strategy: iq.Vector{-0.1, -0.1, -0.1}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("well-formed evaluate after rejects: %d %s", resp.StatusCode, body)
	}
}

func TestCommitBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)

	var before statsWire
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req := commitBatchRequest{Mutations: []mutationWire{
		{Op: "commit", Target: 5, Strategy: iq.Vector{-0.01, 0, 0}},
		{Op: "add_object", Attrs: iq.Vector{0.4, 0.4, 0.4}},
		{Op: "add_query", QueryID: 9001, K: 2, Point: iq.Vector{0.3, 0.5, 0.7}},
		{Op: "remove_query", Index: 3},
	}}
	resp2, body := post(t, ts.URL+"/v1/commit/batch", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("commit/batch: %d %s", resp2.StatusCode, body)
	}
	var res commitBatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(res.Results))
	}
	if res.Results[0].ID != -1 || res.Results[3].ID != -1 {
		t.Errorf("non-add mutations must report id -1: %+v", res.Results)
	}
	if res.Results[1].ID != 100 {
		t.Errorf("add_object id = %d, want 100", res.Results[1].ID)
	}
	if res.Results[2].ID != 40 {
		t.Errorf("add_query index = %d, want 40", res.Results[2].ID)
	}
	// The whole batch publishes exactly one epoch.
	if res.Epoch != uint64(before.Epoch)+1 {
		t.Errorf("epoch %d after batch, want %d", res.Epoch, before.Epoch+1)
	}
	var after statsWire
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.Objects != before.Objects+1 || after.Queries != before.Queries+1 {
		t.Errorf("stats after batch %+v (before %+v)", after, before)
	}
}

func TestCommitBatchEndpointRejects(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 50, 20)

	for name, req := range map[string]commitBatchRequest{
		"empty":      {},
		"unknown-op": {Mutations: []mutationWire{{Op: "upsert", Target: 1}}},
		"bad-target": {Mutations: []mutationWire{
			{Op: "commit", Target: 2, Strategy: iq.Vector{0, 0, 0}},
			{Op: "commit", Target: -1, Strategy: iq.Vector{0, 0, 0}},
		}},
	} {
		resp, body := post(t, ts.URL+"/v1/commit/batch", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	// A rejected batch must not have published: epoch is still the load epoch
	// and solves work against the original data.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsWire
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Objects != 50 || stats.Queries != 20 {
		t.Errorf("failed batches mutated the dataset: %+v", stats)
	}

	// Oversized batch hits the item cap.
	big := commitBatchRequest{}
	for i := 0; i < defaultConfig().maxBatchItems+1; i++ {
		big.Mutations = append(big.Mutations, mutationWire{Op: "commit", Target: 0, Strategy: iq.Vector{0, 0, 0}})
	}
	resp2, body := post(t, ts.URL+"/v1/commit/batch", big)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d (%s), want 400", resp2.StatusCode, body)
	}
}
