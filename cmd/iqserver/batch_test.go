package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"iq"
	"iq/internal/dataset"
)

// A batch must return per-item results identical to the single-solve
// endpoints answering the same requests against the same snapshot.
func TestBatchEndpointMatchesSingleSolves(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)

	req := batchRequest{Items: []batchItemWire{
		{Op: "mincost", Target: 5, Tau: 6},
		{Op: "maxhit", Target: 2, Budget: 0.5},
		{Op: "mincost", Target: 5, Tau: 6}, // repeat: cache-warm
	}}
	resp, body := post(t, ts.URL+"/v1/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
	}

	// Same solves through the single endpoints.
	resp, body = post(t, ts.URL+"/v1/mincost", iqRequest{Target: 5, Tau: 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mincost: %d %s", resp.StatusCode, body)
	}
	var single iqResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		got := br.Results[i]
		if got.Cost != single.Cost || got.Hits != single.Hits || len(got.Strategy) != len(single.Strategy) {
			t.Errorf("batch item %d diverged from /v1/mincost: %+v vs %+v", i, got, single)
		}
		for d := range single.Strategy {
			if got.Strategy[d] != single.Strategy[d] {
				t.Errorf("batch item %d strategy[%d] = %v, single = %v", i, d, got.Strategy[d], single.Strategy[d])
			}
		}
	}
	resp, body = post(t, ts.URL+"/v1/maxhit", iqRequest{Target: 2, Budget: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxhit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if br.Results[1].Cost != single.Cost || br.Results[1].Hits != single.Hits {
		t.Errorf("batch item 1 diverged from /v1/maxhit: %+v vs %+v", br.Results[1], single)
	}
}

// One infeasible item must not fail the batch: it reports its error in place
// while the other items solve normally.
func TestBatchEndpointPerItemError(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 50, 20)
	req := batchRequest{Items: []batchItemWire{
		{Op: "mincost", Target: 1, Tau: 4},
		{Op: "mincost", Target: 1, Tau: 999}, // unreachable
	}}
	resp, body := post(t, ts.URL+"/v1/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Error != "" || br.Results[0].Hits < 4 {
		t.Errorf("healthy item: %+v", br.Results[0])
	}
	if br.Results[1].Error == "" {
		t.Error("unreachable item reported no error")
	}
}

func TestBatchEndpointRejections(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxBatchItems = 2
	ts := testServerCfg(t, cfg)

	// No dataset loaded yet.
	resp, _ := post(t, ts.URL+"/v1/solve/batch", batchRequest{Items: []batchItemWire{{Op: "mincost", Target: 0, Tau: 1}}})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("no-dataset status %d", resp.StatusCode)
	}
	loadDataset(t, ts, 30, 10)

	// Empty batch.
	resp, _ = post(t, ts.URL+"/v1/solve/batch", batchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d", resp.StatusCode)
	}
	// Over the -max-batch cap.
	over := batchRequest{Items: []batchItemWire{
		{Op: "mincost", Target: 0, Tau: 1},
		{Op: "mincost", Target: 1, Tau: 1},
		{Op: "mincost", Target: 2, Tau: 1},
	}}
	resp, body := post(t, ts.URL+"/v1/solve/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap status %d %s", resp.StatusCode, body)
	}
	// Unknown op fails the whole batch before any solving.
	resp, body = post(t, ts.URL+"/v1/solve/batch", batchRequest{Items: []batchItemWire{
		{Op: "mincost", Target: 0, Tau: 1},
		{Op: "topk", Target: 1},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad op status %d %s", resp.StatusCode, body)
	}
	// Malformed per-item cost likewise.
	resp, _ = post(t, ts.URL+"/v1/solve/batch", batchRequest{Items: []batchItemWire{
		{Op: "mincost", Target: 0, Tau: 1, Cost: &costWire{Name: "bogus"}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cost status %d", resp.StatusCode)
	}
}

// BenchmarkBatchEndpoint compares one batch of B solves against B separate
// single-solve requests; `go test -bench Batch ./cmd/iqserver` prints both.
func BenchmarkBatchEndpoint(b *testing.B) {
	ts, items := benchServer(b, 16)
	body, _ := json.Marshal(batchRequest{Items: items})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/solve/batch", body)
	}
}

func BenchmarkSequentialSolves(b *testing.B) {
	ts, items := benchServer(b, 16)
	bodies := make([][]byte, len(items))
	for i, it := range items {
		bodies[i], _ = json.Marshal(iqRequest{Target: it.Target, Tau: it.Tau, Budget: it.Budget})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, it := range items {
			benchPost(b, ts.URL+"/v1/"+it.Op, bodies[j])
		}
	}
}

func benchServer(b *testing.B, batch int) (*httptest.Server, []batchItemWire) {
	b.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(newServer(logger, defaultConfig()).handler())
	b.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(1))
	objs := dataset.Objects(dataset.Independent, 400, 3, rng)
	queries := dataset.UNQueries(120, 3, 5, true, rng)
	var req loadRequest
	for _, o := range objs {
		req.Objects = append(req.Objects, iq.Vector(o))
	}
	for _, q := range queries {
		req.Queries = append(req.Queries, queryWire{ID: q.ID, K: q.K, Point: q.Point})
	}
	buf, _ := json.Marshal(req)
	benchPost(b, ts.URL+"/v1/load", buf)
	items := make([]batchItemWire, batch)
	for i := range items {
		if i%2 == 0 {
			items[i] = batchItemWire{Op: "mincost", Target: i % 8, Tau: 5}
		} else {
			items[i] = batchItemWire{Op: "maxhit", Target: i % 8, Budget: 0.3}
		}
	}
	return ts, items
}

func benchPost(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		b.Fatalf("%s: %d %s", url, resp.StatusCode, data)
	}
	io.Copy(io.Discard, resp.Body)
}
