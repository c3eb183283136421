package iq

// Benchmarks regenerating the paper's evaluation, one per figure (Section
// 6.3), plus micro-benchmarks of the core primitives. The figure benchmarks
// run the bench harness at a small reproducible scale so `go test -bench=.`
// finishes in minutes; `cmd/iqbench` runs the full sweeps and prints the
// paper's series (see EXPERIMENTS.md for recorded results).

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/bench"
	"iq/internal/core"
	"iq/internal/dataset"
	"iq/internal/ese"
	"iq/internal/subdomain"
	"iq/internal/topk"
)

// benchConfig is the scale used by the figure benchmarks.
func benchConfig() bench.Config {
	return bench.Config{
		ObjectSizes:    []int{500, 1000},
		QuerySizes:     []int{80, 160},
		DefaultObjects: 800,
		DefaultQueries: 120,
		Dim:            3,
		KMax:           8,
		IQsPerPoint:    2,
		TauMin:         8, TauMax: 16,
		BetaMin: 0.1, BetaMax: 0.3,
		RandomAttempts: 30,
		RealVehicle:    800,
		RealHouse:      1000,
		Seed:           1,
	}
}

func benchFigure(b *testing.B, name string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := bench.Registry[name](cfg, nil); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkFig4Indexing reproduces Figure 4: indexing cost vs object count
// (Efficient-IQ vs DominantGraph).
func BenchmarkFig4Indexing(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5Indexing reproduces Figure 5: indexing cost vs query count
// (Efficient-IQ vs bare R-tree, non-linear utilities).
func BenchmarkFig5Indexing(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6RealIndexing reproduces Figure 6: indexing cost on the
// VEHICLE/HOUSE stand-ins (all three schemes).
func BenchmarkFig6RealIndexing(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7IN reproduces Figure 7: query processing vs object count on
// Independent data (4 schemes).
func BenchmarkFig7IN(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8CO reproduces Figure 8 (Correlated data).
func BenchmarkFig8CO(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9AC reproduces Figure 9 (Anti-correlated data).
func BenchmarkFig9AC(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10UN reproduces Figure 10: query processing vs query count,
// uniform query workload.
func BenchmarkFig10UN(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11CL reproduces Figure 11 (clustered query workload).
func BenchmarkFig11CL(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12Real reproduces Figure 12: query processing on the
// real-world stand-ins.
func BenchmarkFig12Real(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13Dims reproduces Figure 13: Efficient-IQ vs the number of
// function variables (1–5), polynomial utilities.
func BenchmarkFig13Dims(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkAblationFanout measures the R-tree fan-out ablation.
func BenchmarkAblationFanout(b *testing.B) { benchFigure(b, "ablation-fanout") }

// BenchmarkAblationIntersectionCap measures the Algorithm 1 budget ablation.
func BenchmarkAblationIntersectionCap(b *testing.B) { benchFigure(b, "ablation-cap") }

// BenchmarkAblationSkybandSlack measures the skyband slack ablation.
func BenchmarkAblationSkybandSlack(b *testing.B) { benchFigure(b, "ablation-slack") }

// BenchmarkEvalCost isolates H(p+s) evaluation: ESE vs RTA vs brute force.
func BenchmarkEvalCost(b *testing.B) { benchFigure(b, "eval-cost") }

// --- micro-benchmarks of the primitives ---

func buildBenchWorkload(b *testing.B, n, m int) (*topk.Workload, *subdomain.Index) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	objs := dataset.Objects(dataset.Independent, n, 3, rng)
	queries := dataset.UNQueries(m, 3, 10, true, rng)
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, objs, queries)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := subdomain.Build(w, subdomain.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return w, idx
}

// BenchmarkIndexBuild measures subdomain index construction — the skyband
// and the rows — followed by Algorithm 1's partition of it.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := dataset.Objects(dataset.Independent, 2000, 3, rng)
	queries := dataset.UNQueries(250, 3, 10, true, rng)
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, objs, queries)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := subdomain.Build(w, subdomain.Options{})
		if err != nil {
			b.Fatal(err)
		}
		subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{})
	}
}

// BenchmarkESEHits measures one Efficient Strategy Evaluation (Algorithm 2):
// the evaluator keeps no answers, so every call runs the algorithm.
func BenchmarkESEHits(b *testing.B) {
	_, idx := buildBenchWorkload(b, 2000, 250)
	ev, err := ese.New(subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{}), 7)
	if err != nil {
		b.Fatal(err)
	}
	s := []float64{-0.05, -0.05, -0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Hits(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCostIQ measures one full Min-Cost improvement query
// (Algorithm 3).
func BenchmarkMinCostIQ(b *testing.B) {
	_, idx := buildBenchWorkload(b, 2000, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := i % idx.Workload().NumObjects()
		if _, err := core.MinCostIQ(idx, core.MinCostRequest{Target: target, Tau: 20, Cost: core.L2Cost{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxHitIQ measures one full Max-Hit improvement query
// (Algorithm 4).
func BenchmarkMaxHitIQ(b *testing.B) {
	_, idx := buildBenchWorkload(b, 2000, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := i % idx.Workload().NumObjects()
		if _, err := core.MaxHitIQ(idx, core.MaxHitRequest{Target: target, Budget: 0.5, Cost: core.L2Cost{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKEvaluate measures a plain top-k evaluation.
func BenchmarkTopKEvaluate(b *testing.B) {
	w, _ := buildBenchWorkload(b, 2000, 250)
	q := w.Query(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Evaluate(q)
	}
}
