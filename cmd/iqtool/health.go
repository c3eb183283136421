package main

// Health-subsystem tooling: the -watch terminal dashboard and the
// -health-drive / -health-verify legs of scripts/healthcheck.sh, the live
// burn-rate drill.
//
//   - -watch URL          polls /v1/stats/slo + /v1/stats/history and redraws
//     a terminal summary every -watch-interval: objective table (budget,
//     per-window burn, firing rules) plus sparklines of request rate and
//     solve p99 built from the history ring.
//   - -health-drive URL   loads the demo dataset into a server booted with a
//     deliberately tight latency SLO, drives enough solves to blow it, waits
//     for the fast burn rule to fire, and prints a reference JSON (alerts
//     seen, last sample timestamp) for the verifier.
//   - -health-verify URL  after the server is killed and restarted over the
//     same data directory, asserts the recovered /v1/stats/history still
//     contains samples from before the restart — the journal survived — and
//     that the SLO surface is healthy.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"iq"
	"iq/internal/obs/history"
	"iq/internal/obs/slo"
)

// sloPayload mirrors iqserver's /v1/stats/slo response.
type sloPayload struct {
	Objectives []slo.ObjectiveStatus `json:"objectives"`
	Firing     []slo.RuleStatus      `json:"firing"`
}

// historyPayload mirrors iqserver's /v1/stats/history response.
type historyPayload struct {
	IntervalSeconds  float64          `json:"interval_seconds"`
	RetentionSeconds float64          `json:"retention_seconds"`
	Samples          []history.Sample `json:"samples"`
}

func getJSON(base, path string, out any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + path)
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
	return json.Unmarshal(data, out)
}

// --- -watch ---

var watchSpark = []rune("▁▂▃▄▅▆▇█")

func sparklineOf(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(watchSpark)-1))
			if i > len(watchSpark)-1 {
				i = len(watchSpark) - 1
			}
		}
		b.WriteRune(watchSpark[i])
	}
	return b.String()
}

// watchSeries folds the history samples into named sparkline inputs: the
// total HTTP request rate, and per-op solve p99.
func watchSeries(samples []history.Sample) (reqRate []float64, solveP99 map[string][]float64) {
	solveP99 = map[string][]float64{}
	const width = 40
	if n := len(samples); n > width {
		samples = samples[n-width:]
	}
	reqRate = make([]float64, len(samples))
	for i, sm := range samples {
		for _, p := range sm.Points {
			switch p.Name {
			case "iq_http_responses_total":
				reqRate[i] += p.Rate
			case "iq_solve_duration_seconds":
				op := labelValue(p.Labels, "op")
				vals := solveP99[op]
				if vals == nil {
					vals = make([]float64, len(samples))
					solveP99[op] = vals
				}
				if p.P99 > vals[i] {
					vals[i] = p.P99
				}
			}
		}
	}
	return reqRate, solveP99
}

// labelValue extracts one label's value from a rendered {k="v",...} string.
func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// renderWatch draws one frame of the dashboard. Pure function of its inputs
// so tests can feed canned payloads and assert on the text.
func renderWatch(w io.Writer, sp sloPayload, hp historyPayload, now time.Time) {
	fmt.Fprintf(w, "iq health @ %s — %d samples, interval %s\n",
		now.Format("15:04:05"), len(hp.Samples),
		time.Duration(hp.IntervalSeconds*float64(time.Second)).Truncate(time.Millisecond))
	if len(sp.Firing) > 0 {
		fmt.Fprint(w, "ALERTS:")
		for _, r := range sp.Firing {
			fmt.Fprintf(w, " %s(%s)", r.Name, r.Severity)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "no alerts firing")
	}
	fmt.Fprintf(w, "%-28s %8s %9s", "SLO", "target", "budget")
	if len(sp.Objectives) > 0 {
		for _, win := range sp.Objectives[0].Windows {
			fmt.Fprintf(w, " %7s", "b:"+win.Window)
		}
	}
	fmt.Fprintln(w)
	for _, o := range sp.Objectives {
		fmt.Fprintf(w, "%-28s %7.2f%% %8.1f%%", o.Name, o.Target*100, o.BudgetRemaining*100)
		for _, win := range o.Windows {
			fmt.Fprintf(w, " %7.2f", win.Burn)
		}
		for _, r := range o.Rules {
			if r.Firing {
				fmt.Fprintf(w, "  %s!", r.Name)
			}
		}
		fmt.Fprintln(w)
	}
	reqRate, solveP99 := watchSeries(hp.Samples)
	if len(reqRate) > 0 {
		fmt.Fprintf(w, "%-28s %s\n", "req/s", sparklineOf(reqRate))
	}
	for _, op := range sortedKeys(solveP99) {
		fmt.Fprintf(w, "%-28s %s\n", "solve p99 "+op, sparklineOf(solveP99[op]))
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// healthWatch polls the two endpoints and redraws until count frames have
// been shown (count 0 = forever).
func healthWatch(w io.Writer, base string, interval time.Duration, count int, wait time.Duration) error {
	if err := waitUp(base, wait); err != nil {
		return err
	}
	for frame := 0; count == 0 || frame < count; frame++ {
		if frame > 0 {
			time.Sleep(interval)
		}
		var sp sloPayload
		var hp historyPayload
		if err := getJSON(base, "/v1/stats/slo", &sp); err != nil {
			return err
		}
		if err := getJSON(base, "/v1/stats/history", &hp); err != nil {
			return err
		}
		renderWatch(w, sp, hp, time.Now())
		fmt.Fprintln(w)
	}
	return nil
}

// --- -health-drive / -health-verify ---

// healthRef is what -health-drive hands to -health-verify.
type healthRef struct {
	// LastSampleMs is the newest history timestamp the driver observed; the
	// restarted server must still hold a sample at or before it.
	LastSampleMs int64 `json:"last_sample_ms"`
	// Samples is how many samples the ring held pre-kill.
	Samples int `json:"samples"`
	// FiringWindows are the alert windows that were firing (e.g. "fast").
	FiringWindows []string `json:"firing_windows"`
}

// healthDrive loads the demo dataset and solves until the (deliberately
// tight) latency SLO's fast burn rule fires, then prints the reference JSON.
func healthDrive(w io.Writer, base string, seed int64, wait time.Duration) error {
	if err := waitUp(base, wait); err != nil {
		return err
	}
	objs, queries := demoWorkload(seed)
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
	// Solve in bursts until the evaluator has both ingested the bad events
	// (they only become visible to it at the next history tick) and crossed
	// the fast rule's burn threshold.
	deadline := time.Now().Add(wait)
	for {
		for i := 0; i < 10; i++ {
			var res json.RawMessage
			if err := postJSON(base, "/v1/mincost", map[string]any{"target": 5, "tau": 8}, &res); err != nil {
				return err
			}
		}
		var sp sloPayload
		if err := getJSON(base, "/v1/stats/slo", &sp); err != nil {
			return err
		}
		if len(sp.Firing) > 0 {
			var hp historyPayload
			if err := getJSON(base, "/v1/stats/history", &hp); err != nil {
				return err
			}
			if len(hp.Samples) == 0 {
				return fmt.Errorf("SLO fired but history is empty")
			}
			ref := healthRef{
				LastSampleMs: hp.Samples[len(hp.Samples)-1].UnixMs,
				Samples:      len(hp.Samples),
			}
			for _, r := range sp.Firing {
				ref.FiringWindows = append(ref.FiringWindows, r.Name)
			}
			return json.NewEncoder(w).Encode(ref)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no burn alert fired within %v (objectives: %+v)", wait, sp.Objectives)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// healthVerify asserts the restarted server recovered the telemetry history
// the driver saw: at least one sample at or before the driver's last
// timestamp must have survived the kill.
func healthVerify(base, refFile string, wait time.Duration) error {
	buf, err := os.ReadFile(refFile)
	if err != nil {
		return err
	}
	var ref healthRef
	if err := json.Unmarshal(buf, &ref); err != nil {
		return err
	}
	if err := waitUp(base, wait); err != nil {
		return err
	}
	var hp historyPayload
	if err := getJSON(base, "/v1/stats/history", &hp); err != nil {
		return err
	}
	survived := 0
	for _, sm := range hp.Samples {
		if sm.UnixMs <= ref.LastSampleMs {
			survived++
		}
	}
	if survived == 0 {
		return fmt.Errorf("history did not survive the restart: %d samples, none at or before the pre-kill timestamp %d",
			len(hp.Samples), ref.LastSampleMs)
	}
	var sp sloPayload
	if err := getJSON(base, "/v1/stats/slo", &sp); err != nil {
		return err
	}
	if len(sp.Objectives) == 0 {
		return fmt.Errorf("restarted server reports no SLO objectives")
	}
	fmt.Printf("health recovery verified: %d pre-kill samples survived (ring holds %d), %d objectives live\n",
		survived, len(hp.Samples), len(sp.Objectives))
	return nil
}
