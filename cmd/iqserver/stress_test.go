package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"iq"
)

// TestStressServerCommitTopK is the regression test for the handler lock
// audit: readers hammer /v1/topk, /v1/evaluate and /v1/stats while writers
// hammer /v1/commit, /v1/objects and /v1/queries. Every response must be
// well-formed, and the epoch reported by /v1/stats must be non-decreasing
// per goroutine — a reader can never observe state from before an epoch it
// already saw.
func TestStressServerCommitTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping concurrency stress test in -short mode")
	}
	ts := testServer(t)
	loadDataset(t, ts, 50, 25)

	const (
		readers    = 4
		writers    = 2
		readsPerG  = 40
		writesPerG = 12
	)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed)) // per-goroutine RNG
			lastEpoch := -1
			for it := 0; it < readsPerG; it++ {
				k := 1 + rng.Intn(4)
				resp, body := post(t, ts.URL+"/v1/topk", queryWire{K: k,
					Point: iq.Vector{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("topk: %d %s", resp.StatusCode, body)
					continue
				}
				var topkResp map[string][]int
				if err := json.Unmarshal(body, &topkResp); err != nil {
					t.Errorf("topk body: %v", err)
					continue
				}
				if got := len(topkResp["ids"]); got > k {
					t.Errorf("topk returned %d > k=%d ids", got, k)
				}

				// Targets 0..9 are never the subject of commits large
				// enough to tombstone them, so evaluate must succeed.
				resp, body = post(t, ts.URL+"/v1/evaluate", strategyRequest{
					Target: rng.Intn(10), Strategy: iq.Vector{-0.01, -0.01, -0.01}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("evaluate: %d %s", resp.StatusCode, body)
				}

				stats, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Errorf("stats: %v", err)
					continue
				}
				var st statsWire
				err = json.NewDecoder(stats.Body).Decode(&st)
				stats.Body.Close()
				if err != nil {
					t.Errorf("stats body: %v", err)
					continue
				}
				if st.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", st.Epoch, lastEpoch)
				}
				lastEpoch = st.Epoch
			}
		}(int64(400 + r))
	}

	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < writesPerG; it++ {
				switch rng.Intn(3) {
				case 0:
					resp, body := post(t, ts.URL+"/v1/commit", strategyRequest{
						Target:   10 + rng.Intn(10),
						Strategy: iq.Vector{-0.02 * rng.Float64(), -0.02 * rng.Float64(), -0.02 * rng.Float64()}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("commit: %d %s", resp.StatusCode, body)
					}
				case 1:
					resp, body := post(t, ts.URL+"/v1/objects", map[string]iq.Vector{
						"attrs": {rng.Float64(), rng.Float64(), rng.Float64()}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("add object: %d %s", resp.StatusCode, body)
					}
				default:
					resp, body := post(t, ts.URL+"/v1/queries", queryWire{
						ID: 7000 + int(seed)*100 + it, K: 1 + rng.Intn(3),
						Point: iq.Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("add query: %d %s", resp.StatusCode, body)
					}
				}
			}
		}(int64(500 + wtr))
	}

	wg.Wait()

	// After the dust settles the epoch must equal the number of writes and
	// stats must still be coherent.
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st statsWire
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if want := writers * writesPerG; st.Epoch != want {
		t.Errorf("final epoch %d, want %d", st.Epoch, want)
	}
	if st.Candidates == 0 || st.Queries == 0 {
		t.Errorf("degenerate stats after stress: %+v", st)
	}
}
