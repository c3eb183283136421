package main

// The -crash-* modes are the pieces of scripts/crashcheck.sh, the live
// kill -9 drill: prove that an iqserver booted over a data directory comes
// back with the exact epoch and solve results it acknowledged before dying
// mid-commit.
//
//   - -crash-drive URL   loads the demo dataset plus a strictly dominated
//     "far" object, applies a deterministic mutation history, runs a
//     reference Min-Cost solve, and prints {epoch, far_id, cost, hits,
//     strategy} as JSON for the verifier.
//   - -crash-spray URL   hammers /v1/commit with improve/restore updates of
//     the far object until the server dies, recording every acknowledged
//     epoch to -crash-state. The far object is dominated either way, so the
//     reference solve is invariant under any prefix of the spray — the kill
//     can land anywhere and the expected solve stays well-defined.
//   - -crash-verify URL  waits for the restarted server to leave recovery
//     (/readyz), then asserts the recovered epoch is at least everything
//     acknowledged pre-kill and the reference solve is bit-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"iq"
)

// crashState is what -crash-drive hands to -crash-verify.
type crashState struct {
	Epoch    uint64    `json:"epoch"`
	FarID    int       `json:"far_id"`
	Cost     float64   `json:"cost"`
	Hits     int       `json:"hits"`
	Strategy iq.Vector `json:"strategy"`
}

const crashSolveBody = `{"target": 5, "tau": 8}`

func postJSON(base, path string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// waitOK polls path until the server answers 200 or the deadline passes.
// The pre-load leg polls /healthz, which answers as soon as the process
// listens; the restart leg polls /readyz, which stays 503 until WAL replay
// has finished.
func waitOK(base, path string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(base + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not OK after %v: %v", path, wait, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func statsEpoch(base string) (uint64, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Epoch, nil
}

// crashDrive loads the workload, applies a deterministic history, and prints
// the reference state as JSON on stdout.
func crashDrive(w io.Writer, base string, seed int64, wait time.Duration) error {
	if err := waitOK(base, "/healthz", wait); err != nil {
		return err
	}
	objs, queries := demoWorkload(seed)
	// The far object dominates nothing: every attribute sits 1000 above the
	// dataset maximum, so it never enters a top-k and committing to it
	// cannot change any solve.
	far := make(iq.Vector, len(objs[0]))
	for _, o := range objs {
		for i, a := range o {
			if a > far[i] {
				far[i] = a
			}
		}
	}
	for i := range far {
		far[i] += 1000
	}
	type qw struct {
		ID    int       `json:"id"`
		K     int       `json:"k"`
		Point iq.Vector `json:"point"`
	}
	load := struct {
		Objects []iq.Vector `json:"objects"`
		Queries []qw        `json:"queries"`
	}{Objects: objs}
	for _, q := range queries {
		load.Queries = append(load.Queries, qw{ID: q.ID, K: q.K, Point: q.Point})
	}
	if err := postJSON(base, "/v1/load", load, nil); err != nil {
		return err
	}
	var added struct {
		ID int `json:"id"`
	}
	if err := postJSON(base, "/v1/objects", map[string]iq.Vector{"attrs": far}, &added); err != nil {
		return err
	}
	// Deterministic history: real commits that move the reference solve off
	// the freshly loaded state, so recovery is replaying something.
	for i := 0; i < 3; i++ {
		if err := postJSON(base, "/v1/commit", map[string]any{
			"target": 10 + i, "strategy": iq.Vector{-0.01, -0.005, -0.02},
		}, nil); err != nil {
			return err
		}
	}
	var st crashState
	if err := postJSON(base, "/v1/mincost", json.RawMessage(crashSolveBody), &st); err != nil {
		return err
	}
	st.FarID = added.ID
	epoch, err := statsEpoch(base)
	if err != nil {
		return err
	}
	st.Epoch = epoch
	return json.NewEncoder(w).Encode(st)
}

// crashSpray commits improve/restore updates of the far object until the
// server stops answering (the kill), appending each acknowledged epoch to
// stateFile so the verifier knows the durability floor.
func crashSpray(base, stateFile string, farID int) error {
	f, err := os.Create(stateFile)
	if err != nil {
		return err
	}
	defer f.Close()
	sign := 1.0
	for {
		var res struct {
			Hits int `json:"hits"`
		}
		if err := postJSON(base, "/v1/commit", map[string]any{
			"target": farID, "strategy": iq.Vector{sign, 0, 0},
		}, &res); err != nil {
			// The server died (that is the point); the last line written is
			// the durability floor.
			return nil
		}
		epoch, err := statsEpoch(base)
		if err != nil {
			return nil
		}
		if _, err := fmt.Fprintf(f, "%d\n", epoch); err != nil {
			return err
		}
		sign = -sign
	}
}

// crashVerify asserts the restarted server recovered everything that was
// acknowledged before the kill.
func crashVerify(base, driveFile, sprayFile string, wait time.Duration) error {
	if err := waitOK(base, "/readyz", wait); err != nil {
		return err
	}
	buf, err := os.ReadFile(driveFile)
	if err != nil {
		return err
	}
	var want crashState
	if err := json.Unmarshal(buf, &want); err != nil {
		return err
	}
	floor := want.Epoch
	if buf, err := os.ReadFile(sprayFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
			if line == "" {
				continue
			}
			if e, err := strconv.ParseUint(line, 10, 64); err == nil && e > floor {
				floor = e
			}
		}
	}
	epoch, err := statsEpoch(base)
	if err != nil {
		return err
	}
	if epoch < floor {
		return fmt.Errorf("recovered epoch %d below acknowledged floor %d: acknowledged writes were lost", epoch, floor)
	}
	var got crashState
	if err := postJSON(base, "/v1/mincost", json.RawMessage(crashSolveBody), &got); err != nil {
		return err
	}
	if got.Cost != want.Cost || got.Hits != want.Hits {
		return fmt.Errorf("solve diverged after crash recovery: got cost=%v hits=%d, want cost=%v hits=%d",
			got.Cost, got.Hits, want.Cost, want.Hits)
	}
	if len(got.Strategy) != len(want.Strategy) {
		return fmt.Errorf("strategy dimensionality changed: %d vs %d", len(got.Strategy), len(want.Strategy))
	}
	for d := range want.Strategy {
		if got.Strategy[d] != want.Strategy[d] {
			return fmt.Errorf("strategy differs at dim %d: %v vs %v", d, got.Strategy[d], want.Strategy[d])
		}
	}
	fmt.Printf("crash recovery verified: epoch %d (floor %d), solve bit-identical\n", epoch, floor)
	return nil
}
