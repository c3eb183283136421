package main

// The -analyze modes exercise the workload analytics layer end to end.
//
// -analyze runs entirely in-process: build a deliberately skewed demo
// workload (four tight query clusters plus a diffuse remainder), drive
// solves and commits through the engine so the per-region aggregator fills,
// then print the windowed report — hottest regions, churn leaders, and the
// (target, op) table.
//
// -analyze-server URL drives a live iqserver the same way over HTTP, then
// fetches /v1/stats/workload and validates the payload shape: at least one
// hot region with nonzero attributed load and a target table. ci.sh runs
// this against a throwaway server (scripts/analyzecheck.sh) so a broken hook
// or a snapshot regression fails the build.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"iq"
	"iq/internal/dataset"
	"iq/internal/obs/workload"
)

// skewedWorkload builds the demo dataset for the analyze modes: 200 objects
// and 120 queries of which 80% sit in four tight clusters along the first
// coordinate — the axis region positions are reported on — so the per-region
// load map has pronounced, spatially separated hot spots.
func skewedWorkload(seed int64) ([]iq.Vector, []iq.Query) {
	rng := rand.New(rand.NewSource(seed))
	objsRaw := dataset.Objects(dataset.Independent, 200, 3, rng)
	objs := make([]iq.Vector, len(objsRaw))
	for i, o := range objsRaw {
		objs[i] = iq.Vector(o)
	}
	var queries []iq.Query
	id := 0
	centers := []float64{0.15, 0.4, 0.65, 0.9}
	for _, c := range centers {
		for i := 0; i < 24; i++ {
			pt := iq.Vector{
				c + (rng.Float64()-0.5)*0.04,
				c + (rng.Float64()-0.5)*0.04,
				c + (rng.Float64()-0.5)*0.04,
			}
			queries = append(queries, iq.Query{ID: id, K: 5, Point: pt})
			id++
		}
	}
	for i := 0; i < 24; i++ {
		pt := iq.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		queries = append(queries, iq.Query{ID: id, K: 5, Point: pt})
		id++
	}
	return objs, queries
}

// analyzeLocal drives the skewed demo in-process and prints the report.
func analyzeLocal(out io.Writer, seed int64) error {
	workload.Default.Reset()
	objs, queries := skewedWorkload(seed)
	ctx := context.Background()
	sys, err := iq.NewWithOptionsCtx(ctx, iq.LinearSpace{D: 3}, objs, queries, iq.IndexOptions{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 16; i++ {
		target := rng.Intn(sys.NumObjects())
		if _, err := sys.MinCostCtx(ctx, iq.MinCostRequest{Target: target, Tau: 8, Cost: iq.L2Cost{}}); err != nil && err != iq.ErrGoalUnreachable {
			return fmt.Errorf("solve %d (target %d): %w", i, target, err)
		}
	}
	for i := 0; i < 4; i++ {
		target := rng.Intn(sys.NumObjects())
		if _, err := sys.MaxHitCtx(ctx, iq.MaxHitRequest{Target: target, Budget: 0.5, Cost: iq.L2Cost{}}); err != nil && err != iq.ErrGoalUnreachable {
			return fmt.Errorf("maxhit %d (target %d): %w", i, target, err)
		}
	}
	// A few object inserts drive commit churn through the dirty-set hook.
	for i := 0; i < 3; i++ {
		attrs := iq.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if _, err := sys.AddObjectCtx(ctx, attrs); err != nil {
			return fmt.Errorf("add object: %w", err)
		}
	}
	snap := workload.Default.Snapshot()
	printReport(out, snap)
	return nil
}

func printReport(out io.Writer, snap *workload.Snapshot) {
	fmt.Fprintf(out, "workload report: window %.0fs x %d buckets, %d/%d keys tracked, %d retired\n",
		snap.Window.Seconds, snap.Window.Buckets, snap.TrackedKeys, snap.MaxKeys, snap.RetiredSlots)
	fmt.Fprintf(out, "\ntop regions by attributed load\n")
	fmt.Fprintf(out, "%8s %8s %10s %7s %8s %8s %7s %7s\n",
		"region", "pos", "load_us", "solves", "probes", "thrhit%", "churn", "commits")
	for i, r := range snap.Regions {
		if i >= 10 {
			fmt.Fprintf(out, "  ... %d more\n", len(snap.Regions)-i)
			break
		}
		fmt.Fprintf(out, "%8d %8.3f %10d %7d %8d %8.0f %7d %7d\n",
			r.Region, r.Pos, r.LoadNS/1000, r.Solves, r.Probes, r.ThrHitRatio*100, r.Churn, r.Commits)
	}
	fmt.Fprintf(out, "\nchurn leaders\n")
	for i, r := range snap.ChurnLeaders() {
		if i >= 5 || r.Churn == 0 {
			break
		}
		fmt.Fprintf(out, "%8d %8.3f churn=%d commits=%d\n", r.Region, r.Pos, r.Churn, r.Commits)
	}
	fmt.Fprintf(out, "\ntargets\n")
	for i, t := range snap.Targets {
		if i >= 8 {
			fmt.Fprintf(out, "  ... %d more\n", len(snap.Targets)-i)
			break
		}
		fmt.Fprintf(out, "%8d %-8s load_us=%d solves=%d probes=%d\n",
			t.Target, t.Op, t.LoadNS/1000, t.Solves, t.Probes)
	}
}

// workloadWire mirrors the /v1/stats/workload response for validation.
type workloadWire struct {
	Window struct {
		Seconds float64 `json:"seconds"`
		Buckets int     `json:"buckets"`
	} `json:"window"`
	Regions []struct {
		Region uint64  `json:"region"`
		Pos    float64 `json:"pos"`
		LoadNS int64   `json:"load_ns"`
		Probes int64   `json:"probes"`
		Churn  int64   `json:"churn"`
	} `json:"regions"`
	Targets []struct {
		Target int    `json:"target"`
		Op     string `json:"op"`
		LoadNS int64  `json:"load_ns"`
	} `json:"targets"`
	ChurnLeaders []struct {
		Region uint64 `json:"region"`
		Churn  int64  `json:"churn"`
	} `json:"churn_leaders"`
}

// analyzeServer drives a live iqserver with the skewed demo, then fetches
// and validates /v1/stats/workload.
func analyzeServer(out io.Writer, baseURL string, seed int64, timeout time.Duration) error {
	objs, queries := skewedWorkload(seed)
	type queryWire struct {
		ID    int       `json:"id"`
		K     int       `json:"k"`
		Point iq.Vector `json:"point"`
	}
	loadBody := struct {
		Objects []iq.Vector `json:"objects"`
		Queries []queryWire `json:"queries"`
	}{Objects: objs}
	for _, q := range queries {
		loadBody.Queries = append(loadBody.Queries, queryWire{ID: q.ID, K: q.K, Point: q.Point})
	}
	payload, err := json.Marshal(loadBody)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// Load, retrying while the server comes up.
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready within %s: %w", timeout, lastErr)
		}
		resp, err := client.Post(baseURL+"/v1/load", "application/json", bytes.NewReader(payload))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			lastErr = fmt.Errorf("load status %d: %s", resp.StatusCode, body)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}

	post := func(path, body string) error {
		resp, err := client.Post(baseURL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// 422 (goal unreachable) is a legitimate solve outcome for a random
		// target; the request still exercised the attribution path.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			return fmt.Errorf("%s status %d: %s", path, resp.StatusCode, b)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 12; i++ {
		target := rng.Intn(len(objs))
		if err := post("/v1/mincost", fmt.Sprintf(`{"target":%d,"tau":8}`, target)); err != nil {
			return err
		}
	}
	for i := 0; i < 4; i++ {
		target := rng.Intn(len(objs))
		if err := post("/v1/maxhit", fmt.Sprintf(`{"target":%d,"budget":0.5}`, target)); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		if err := post("/v1/objects", fmt.Sprintf(`{"attrs":[%f,%f,%f]}`,
			rng.Float64(), rng.Float64(), rng.Float64())); err != nil {
			return err
		}
	}

	resp, err := client.Get(baseURL + "/v1/stats/workload")
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stats/workload status %d: %s", resp.StatusCode, data)
	}
	var wire workloadWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return fmt.Errorf("workload stats not valid JSON: %w", err)
	}
	if wire.Window.Seconds <= 0 || wire.Window.Buckets <= 0 {
		return fmt.Errorf("bad window metadata: %+v", wire.Window)
	}
	if len(wire.Regions) == 0 {
		return fmt.Errorf("no regions attributed after %d solves", 16)
	}
	if wire.Regions[0].LoadNS <= 0 {
		return fmt.Errorf("hottest region %d has no attributed load", wire.Regions[0].Region)
	}
	if len(wire.Targets) == 0 {
		return fmt.Errorf("no (target, op) series after driving solves")
	}
	// The debug page must render.
	resp, err = client.Get(baseURL + "/debug/workload")
	if err != nil {
		return err
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(page, []byte("workload heatmap")) {
		return fmt.Errorf("/debug/workload status %d or malformed page", resp.StatusCode)
	}
	fmt.Fprintf(out, "workload analytics OK: %d regions (hottest %d: %dus), %d target series\n",
		len(wire.Regions), wire.Regions[0].Region, wire.Regions[0].LoadNS/1000, len(wire.Targets))
	return nil
}
