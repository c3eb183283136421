package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"iq/internal/dataset"
	"iq/internal/dgraph"
	"iq/internal/rtree"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file reproduces the indexing-cost experiments: Figure 4 (vs object
// count, against DominantGraph), Figure 5 (vs query count, against a bare
// R-tree) and Figure 6 (real-world datasets, all three schemes).

// buildIQIndex times subdomain-index construction, Algorithm 1's partition
// included, and reports its size.
func buildIQIndex(w *topk.Workload) (time.Duration, int, error) {
	start := time.Now()
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		return 0, 0, err
	}
	size := idx.Stats().SizeBytes // runs Algorithm 1 inside the timer
	return time.Since(start), size, nil
}

// buildRTreeOnly times building just the query R-tree (the Figure 5
// baseline: the extra work Efficient-IQ does is the subdomain grouping).
func buildRTreeOnly(w *topk.Workload) (time.Duration, int) {
	start := time.Now()
	t := rtree.New(w.Space().QueryDim(), rtree.DefaultMaxEntries)
	for j := 0; j < w.NumQueries(); j++ {
		t.Insert(w.Query(j).Point, j)
	}
	return time.Since(start), t.SizeBytes()
}

// buildDominantGraph times the Figure 4/6 baseline index over the objects.
func buildDominantGraph(coeffs []vec.Vector) (time.Duration, int) {
	start := time.Now()
	g := dgraph.Build(coeffs)
	return time.Since(start), g.SizeBytes()
}

// Fig4 reproduces Figure 4: indexing time and size versus the number of
// objects, Efficient-IQ against DominantGraph, averaged over the IN/CO/AC
// synthetic distributions, linear utilities.
func Fig4(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fig := &Figure{ID: "fig4", Title: "Scalability to the object set size"}
	timePanel := Panel{Title: "(a) Indexing time", XLabel: "objects", YLabel: "seconds"}
	sizePanel := Panel{Title: "(b) Index size", XLabel: "objects", YLabel: "% of dataset"}

	dists := []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.AntiCorrelated}
	for _, n := range cfg.ObjectSizes {
		var iqTime, dgTime time.Duration
		var iqSize, dgSize int
		for _, dist := range dists {
			objs := dataset.Objects(dist, n, cfg.Dim, rng)
			queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, false, rng)
			w, err := buildLinearWorkload(objs, queries)
			if err != nil {
				return nil, err
			}
			t1, s1, err := buildIQIndex(w)
			if err != nil {
				return nil, err
			}
			t2, s2 := buildDominantGraph(objs)
			iqTime += t1
			dgTime += t2
			iqSize += s1
			dgSize += s2
		}
		div := float64(len(dists))
		base := float64(datasetBytes(n, cfg.Dim))
		timePanel.addPoint("Efficient-IQ", float64(n), iqTime.Seconds()/div)
		timePanel.addPoint("DominantGraph", float64(n), dgTime.Seconds()/div)
		sizePanel.addPoint("Efficient-IQ", float64(n), 100*float64(iqSize)/div/base)
		sizePanel.addPoint("DominantGraph", float64(n), 100*float64(dgSize)/div/base)
		if progress != nil {
			fmt.Fprintf(progress, "fig4: n=%d done (IQ %.3fs, DG %.3fs)\n", n, iqTime.Seconds()/div, dgTime.Seconds()/div)
		}
	}
	fig.Panels = []Panel{timePanel, sizePanel}
	return fig, nil
}

// Fig5 reproduces Figure 5: indexing time and size versus the number of
// queries, Efficient-IQ against a bare R-tree, non-linear (polynomial)
// utilities allowed.
func Fig5(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	fig := &Figure{ID: "fig5", Title: "Scalability to the query set size"}
	timePanel := Panel{Title: "(a) Indexing time", XLabel: "queries", YLabel: "seconds"}
	sizePanel := Panel{Title: "(b) Index size", XLabel: "queries", YLabel: "% of dataset"}

	space, err := dataset.PolynomialSpace(cfg.Dim, 5, rng)
	if err != nil {
		return nil, err
	}
	objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, cfg.Dim, rng)
	for _, m := range cfg.QuerySizes {
		queries := dataset.UNQueries(m, space.QueryDim(), cfg.KMax, false, rng)
		w, err := topk.NewWorkload(space, objs, queries)
		if err != nil {
			return nil, err
		}
		t1, s1, err := buildIQIndex(w)
		if err != nil {
			return nil, err
		}
		t2, s2 := buildRTreeOnly(w)
		base := float64(datasetBytes(cfg.DefaultObjects, cfg.Dim))
		timePanel.addPoint("Efficient-IQ", float64(m), t1.Seconds())
		timePanel.addPoint("R-tree", float64(m), t2.Seconds())
		sizePanel.addPoint("Efficient-IQ", float64(m), 100*float64(s1)/base)
		sizePanel.addPoint("R-tree", float64(m), 100*float64(s2)/base)
		if progress != nil {
			fmt.Fprintf(progress, "fig5: m=%d done (IQ %.3fs, R-tree %.3fs)\n", m, t1.Seconds(), t2.Seconds())
		}
	}
	fig.Panels = []Panel{timePanel, sizePanel}
	return fig, nil
}

// Fig6 reproduces Figure 6: indexing cost on the real-world datasets
// (VEHICLE/HOUSE stand-ins), all three schemes. Query sets are one third of
// the dataset size, as Section 6.3.2 prescribes for the real data.
func Fig6(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	fig := &Figure{ID: "fig6", Title: "Indexing cost of real-world datasets"}
	timePanel := Panel{Title: "(a) Indexing time", XLabel: "dataset", YLabel: "seconds"}
	sizePanel := Panel{Title: "(b) Index size", XLabel: "dataset", YLabel: "% of dataset"}

	sets := []struct {
		name string
		objs []vec.Vector
	}{
		{"VEHICLE", dataset.VehicleObjects(cfg.RealVehicle, rng)},
		{"HOUSE", dataset.HouseObjects(cfg.RealHouse, rng)},
	}
	for si, s := range sets {
		m := len(s.objs) / 3
		d := len(s.objs[0])
		queries := dataset.UNQueries(m, d, cfg.KMax, false, rng)
		w, err := buildLinearWorkload(s.objs, queries)
		if err != nil {
			return nil, err
		}
		x := float64(si)
		t1, s1, err := buildIQIndex(w)
		if err != nil {
			return nil, err
		}
		t2, s2 := buildRTreeOnly(w)
		t3, s3 := buildDominantGraph(s.objs)
		base := float64(datasetBytes(len(s.objs), d))
		timePanel.addPoint("Efficient-IQ", x, t1.Seconds())
		timePanel.addPoint("R-tree", x, t2.Seconds())
		timePanel.addPoint("DominantGraph", x, t3.Seconds())
		sizePanel.addPoint("Efficient-IQ", x, 100*float64(s1)/base)
		sizePanel.addPoint("R-tree", x, 100*float64(s2)/base)
		sizePanel.addPoint("DominantGraph", x, 100*float64(s3)/base)
		if progress != nil {
			fmt.Fprintf(progress, "fig6: %s done\n", s.name)
		}
	}
	fig.Panels = []Panel{timePanel, sizePanel}
	return fig, nil
}
