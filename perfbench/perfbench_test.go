package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSeedOrdersTheSameWork(t *testing.T) {
	w := newLoopWork(loopShapes["loop-in"])
	if again := newLoopWork(loopShapes["loop-in"]); !reflect.DeepEqual(w.pool, again.pool) || !reflect.DeepEqual(w.warm, again.warm) {
		t.Fatal("the loop pool depends on something besides the data seed")
	}
	a, b, c := loopSequence(w.pool, 5, 4), loopSequence(w.pool, 5, 4), loopSequence(w.pool, 6, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different loop sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same loop sequence")
	}
	for p := range a {
		if !sameMultiset(a[p], c[p]) {
			t.Fatalf("pass %d visits different targets under different seeds", p)
		}
	}

	sw := newServeWork()
	s1, s2, s3 := serveSchedule(sw, 5, 10*time.Second), serveSchedule(sw, 5, 10*time.Second), serveSchedule(sw, 6, 10*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different serve schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds gave the same serve schedule")
	}
	if kinds(s1) != kinds(s3) || len(s1) != int(serve.rate*10) {
		t.Fatalf("schedules differ in their mix: %v vs %v", kinds(s1), kinds(s3))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].Due < s1[i-1].Due {
			t.Fatal("schedule is not in due order")
		}
	}
}

func sameMultiset(a, b []loopTarget) bool {
	count := map[loopTarget]int{}
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func kinds(s []request) [5]int {
	var n [5]int
	for _, r := range s {
		for i, m := range serveMix {
			if r.Kind == m.Kind {
				n[i]++
			}
		}
	}
	return n
}

func TestTargetsMissTheirGoal(t *testing.T) {
	for name, s := range loopShapes {
		w := newLoopWork(s)
		for _, tg := range append(append([]loopTarget(nil), w.pool...), w.warm...) {
			if w.data.baseHits[tg.Target] >= tg.Tau {
				t.Errorf("%s: target %d already hits %d >= tau %d", name, tg.Target, w.data.baseHits[tg.Target], tg.Tau)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nin the command:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nin the command:\n%v", layers, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"loop-in", "loop-ac", "serve-mixed"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// every check to pass and every metric of BENCHMARK.json to be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "iqserver")
	build := exec.Command("go", "build", "-o", server, "iq/cmd/iqserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building iqserver: %v\n%s", err, out)
	}
	for _, w := range []string{"loop-in", "loop-ac", "serve-mixed"} {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: time.Second, trace: trace, serverBin: server, workDir: dir}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, d.Name, m.Value)
				}
			}
		}
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	if checkTopK([]int{3, 3}, 2, 10) == nil || checkTopK([]int{1}, 2, 10) == nil || checkTopK([]int{1, 12}, 2, 10) == nil {
		t.Error("checkTopK accepted a bad id list")
	}
	if err := checkTopK([]int{4, 1}, 2, 10); err != nil {
		t.Error(err)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("root", 0, at(0), at(100))
	r.add("a", root, at(10), at(40))
	r.add("b", root, at(30), at(50))  // overlaps a
	r.add("c", root, at(90), at(120)) // runs past the root
	sum := r.summary()
	if got := sum["root"].SelfMS; got != 50 {
		t.Errorf("root self time %v ms, want 50", got)
	}
	if got := sum["a"].SelfMS; got != 30 {
		t.Errorf("child self time %v ms, want 30", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	before := map[string]float64{`h_bucket{le="0.001"}`: 5, `h_bucket{le="0.01"}`: 5, `h_bucket{le="+Inf"}`: 5}
	after := map[string]float64{`h_bucket{le="0.001"}`: 15, `h_bucket{le="0.01"}`: 25, `h_bucket{le="+Inf"}`: 25}
	// 20 new observations: 10 at or below 1ms, 10 in (1ms, 10ms].
	if got := histogramQuantile(before, after, "h", 0.5); got != 0.001 {
		t.Errorf("p50 %v, want 0.001", got)
	}
	if got := histogramQuantile(before, after, "h", 0.75); got < 0.0055-1e-12 || got > 0.0055+1e-12 {
		t.Errorf("p75 %v, want 0.0055", got)
	}
}

func TestLoopMetricsScale(t *testing.T) {
	lt := newLoopTimes()
	for _, x := range []struct {
		target loopTarget
		it     iterTimes
	}{
		{loopTarget{Target: 1}, iterTimes{cold: 100 * time.Millisecond, commit: 4 * time.Millisecond, requery: 400 * time.Millisecond, maxhit: 2 * time.Millisecond}},
		{loopTarget{Target: 1}, iterTimes{cold: 300 * time.Millisecond, commit: 4 * time.Millisecond, requery: 400 * time.Millisecond, maxhit: 2 * time.Millisecond}},
		{loopTarget{Target: 2}, iterTimes{cold: 50 * time.Millisecond, commit: 4 * time.Millisecond, requery: 400 * time.Millisecond, maxhit: 200 * time.Millisecond}},
	} {
		lt.add(x.target, x.it)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	one, half := lt.metrics(1), lt.metrics(0.5)
	// Target 1's cold time averages to 200 ms; the geometric mean with
	// target 2's 50 ms is 100 ms. Max-Hit: sqrt(2·200) = 20 ms.
	if !near(one["mincost_p50_ms"], 100) || !near(one["maxhit_p50_ms"], 20) || !near(one["commit_p50_ms"], 4) {
		t.Errorf("unscaled metrics %v", one)
	}
	for k, v := range one {
		want := v / 2
		if k == "iter_per_min" {
			want = v * 2
		}
		if !near(half[k], want) {
			t.Errorf("%s at scale 0.5 = %v, want %v", k, half[k], want)
		}
	}
}

func TestProbeIsFixedWork(t *testing.T) {
	if a, b := newProbe().work(), newProbe().work(); a != b || a == 0 {
		t.Errorf("probe counted %d and %d hits", a, b)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("median")
	}
	if quantile(xs, 0.99) != 5 || quantile(xs, 0.2) != 1 {
		t.Error("quantile")
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean %v, want 10", g)
	}
}
