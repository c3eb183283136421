package main

// The -trend mode is the cross-PR performance ledger: it reads every
// BENCH_PR*.json in -trend-dir, extracts each file's headline ns/op metrics
// under lineage-aware keys, prints the trajectory, and fails when the newest
// file regresses >10% against the best earlier value of the same key.
//
// Lineage keys matter because the benchmarked configuration has evolved:
// PR 5/6 measured warm solves before workload analytics existed, PR 8
// onwards measures them with analytics on (the production configuration).
// Comparing across those lineages would report a phantom regression, so the
// keys embed the lineage ("warm-solve pre-analytics/..." vs "warm-solve
// production/...") and the gate only ever compares same-keyed metrics.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// trendFile is one parsed benchmark ledger.
type trendFile struct {
	Name    string // base filename, e.g. BENCH_PR8.json
	PR      int
	Metrics map[string]float64 // lineage-keyed headline ns/op values, lower is better
}

var benchPRPattern = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// loadTrendFiles parses every BENCH_PR*.json in dir, sorted by PR number.
func loadTrendFiles(dir string) ([]trendFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []trendFile
	for _, e := range entries {
		m := benchPRPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var doc map[string]any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		files = append(files, trendFile{
			Name:    e.Name(),
			PR:      pr,
			Metrics: extractHeadlines(doc),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].PR < files[j].PR })
	return files, nil
}

// extractHeadlines maps one ledger's document to its lineage-keyed metrics.
// Unknown generators contribute nothing — a future bench mode is invisible to
// the trend until a key is defined for it, never a spurious failure.
func extractHeadlines(doc map[string]any) map[string]float64 {
	out := map[string]float64{}
	gen, _ := doc["generated_by"].(string)
	num := func(v any) (float64, bool) {
		f, ok := v.(float64)
		return f, ok
	}
	rows := func(field string) []map[string]any {
		raw, _ := doc[field].([]any)
		var ms []map[string]any
		for _, r := range raw {
			if m, ok := r.(map[string]any); ok {
				ms = append(ms, m)
			}
		}
		return ms
	}
	switch gen {
	case "iqbench -json":
		for _, r := range rows("benchmarks") {
			if on, _ := r["metrics_enabled"].(bool); on {
				if v, ok := num(r["ns_per_op"]); ok {
					out[fmt.Sprintf("cold-solve obs-on/%v", r["name"])] = v
				}
			}
		}
	case "iqbench -trace-json":
		for _, r := range rows("benchmarks") {
			if v, ok := num(r["ns_per_op"]); ok {
				out[fmt.Sprintf("cold-solve trace-%v/%v", r["mode"], r["name"])] = v
			}
		}
	case "iqbench -cache-json":
		for _, r := range rows("benchmarks") {
			v, ok := num(r["ns_per_op"])
			if !ok {
				continue
			}
			if cached, _ := r["cache_enabled"].(bool); cached {
				out[fmt.Sprintf("warm-solve pre-analytics/%v", r["name"])] = v
			} else {
				out[fmt.Sprintf("cold-solve uncached/%v", r["name"])] = v
			}
		}
	case "iqbench -write-json":
		for _, r := range rows("modes") {
			dirty, _ := r["dirty_enabled"].(bool)
			if r["locality"] == "none" && dirty {
				if v, ok := num(r["ns_per_solve"]); ok {
					out["post-mutation-warm pre-analytics"] = v
				}
			}
		}
	case "iqbench -wal-json":
		for _, r := range rows("arms") {
			if v, ok := num(r["ns_per_commit"]); ok {
				out[fmt.Sprintf("commit/%v", r["arm"])] = v
			}
		}
	case "iqbench -analytics-json":
		for _, r := range rows("benchmarks") {
			v, ok := num(r["ns_per_op"])
			if !ok {
				continue
			}
			if on, _ := r["analytics_enabled"].(bool); on {
				out[fmt.Sprintf("warm-solve production/%v", r["name"])] = v
			}
		}
	case "iqbench -health-json":
		for _, r := range rows("benchmarks") {
			v, ok := num(r["ns_per_op"])
			if !ok {
				continue
			}
			if on, _ := r["health_enabled"].(bool); on {
				out[fmt.Sprintf("warm-solve production/%v", r["name"])] = v
			}
		}
	}
	return out
}

// trendRegressLimit is the gate: the newest ledger may not exceed the best
// earlier same-keyed value by more than this factor.
const trendRegressLimit = 1.10

// runTrend prints the trajectory table and applies the regression gate.
func runTrend(dir string) error {
	files, err := loadTrendFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no BENCH_PR*.json ledgers found in %s", dir)
	}
	keySet := map[string]bool{}
	for _, f := range files {
		for k := range f.Metrics {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	width := 0
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	fmt.Printf("%-*s", width, "metric (ns, lower is better)")
	for _, f := range files {
		fmt.Printf(" %12s", fmt.Sprintf("PR%d", f.PR))
	}
	fmt.Println()
	for _, k := range keys {
		fmt.Printf("%-*s", width, k)
		for _, f := range files {
			if v, ok := f.Metrics[k]; ok {
				fmt.Printf(" %12.0f", v)
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		fmt.Println()
	}

	newest := files[len(files)-1]
	var failures []string
	for k, v := range newest.Metrics {
		best := 0.0
		seen := false
		for _, f := range files[:len(files)-1] {
			if prev, ok := f.Metrics[k]; ok && (!seen || prev < best) {
				best, seen = prev, true
			}
		}
		if !seen {
			continue
		}
		ratio := v / best
		mark := ""
		if ratio > trendRegressLimit {
			mark = "  << REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns vs best known %.0f ns (%+.1f%%)", k, v, best, (ratio-1)*100))
		}
		fmt.Printf("%s: %.0f ns, best known %.0f ns (%+.1f%%)%s\n", k, v, best, (ratio-1)*100, mark)
	}
	sort.Strings(failures)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Printf("FAIL %s\n", f)
		}
		return fmt.Errorf("%s regresses %d metric(s) >%.0f%% against the best known values",
			newest.Name, len(failures), (trendRegressLimit-1)*100)
	}
	fmt.Printf("trend OK: %s within %.0f%% of the best known value on every shared metric\n",
		newest.Name, (trendRegressLimit-1)*100)
	return nil
}
