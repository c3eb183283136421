package subdomain

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/topk"
	"iq/internal/vec"
)

// Tests for the intersection-pair pruning: the sweep path for 1-D query
// hulls and the box-straddle filter.

func TestSweepPathForNormalizedWeights(t *testing.T) {
	// Normalised 2-D weights lie on the line w1+w2=1: the sweep path must
	// trigger and the index must stay sound.
	rng := rand.New(rand.NewSource(1))
	n, m := 150, 80
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = vec.Vector{rng.Float64(), rng.Float64()}
	}
	queries := make([]topk.Query, m)
	for j := range queries {
		w1 := rng.Float64()
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(4), Point: vec.Vector{w1, 1 - w1}}
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: 2}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep alone must produce a sound grouping (no refinement).
	idx, err := Build(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.algorithm1(PartitionOptions{}, false).CheckInvariant(); err != nil {
		t.Fatalf("sweep-based partition unsound: %v", err)
	}
	// The hull-segment detector must have fired.
	all := make([]int, m)
	for j := range all {
		all[j] = j
	}
	if _, _, ok := idx.queryHullSegment(all); !ok {
		t.Error("normalised weights should form a 1-D hull")
	}
}

func TestBoxFilterPrunesButStaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m, d := 200, 60, 3
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = make(vec.Vector, d)
		for k := range attrs[i] {
			attrs[i][k] = rng.Float64()
		}
	}
	// Queries confined to a small box: many candidate pairs cannot swap
	// order inside it, so the filter should prune a decent share.
	queries := make([]topk.Query, m)
	for j := range queries {
		pt := make(vec.Vector, d)
		for k := range pt {
			pt[k] = 0.45 + 0.1*rng.Float64()
		}
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(3), Point: pt}
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: d}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.algorithm1(PartitionOptions{}, false).CheckInvariant(); err != nil {
		t.Fatalf("box-filtered partition unsound: %v", err)
	}
	cands := len(idx.Candidates())
	allPairs := cands * (cands - 1) / 2
	lo := vec.Vector{0.45, 0.45, 0.45}
	hi := vec.Vector{0.55, 0.55, 0.55}
	kept := len(idx.boxFilteredPairs(lo, hi))
	if kept >= allPairs {
		t.Errorf("box filter pruned nothing: %d of %d", kept, allPairs)
	}
}

func TestHullSegmentDegenerateCases(t *testing.T) {
	// All queries identical: hull is a point, treated as a segment.
	attrs := []vec.Vector{{0.3, 0.4}, {0.5, 0.2}}
	q := topk.Query{ID: 0, K: 1, Point: vec.Vector{0.5, 0.5}}
	w, err := topk.NewWorkload(topk.LinearSpace{D: 2}, attrs, []topk.Query{q, q, q})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := partition(idx).NumSubdomains(); n != 1 {
		t.Errorf("identical queries should share one subdomain, got %d", n)
	}
}

func TestSweepAndBruteAgreeOnSubdomains(t *testing.T) {
	// The same 1-D-hull workload partitioned with the sweep and with a
	// forced box filter must produce equivalent groupings (same number of
	// subdomains, same invariant).
	rng := rand.New(rand.NewSource(3))
	attrs := make([]vec.Vector, 100)
	for i := range attrs {
		attrs[i] = vec.Vector{rng.Float64(), rng.Float64()}
	}
	queries := make([]topk.Query, 50)
	for j := range queries {
		w1 := rng.Float64()
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(3), Point: vec.Vector{w1, 1 - w1}}
	}
	w1, _ := topk.NewWorkload(topk.LinearSpace{D: 2}, attrs, queries)
	idxSweep, err := Build(w1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with refinement (which is signature-exact) as the reference.
	w2, _ := topk.NewWorkload(topk.LinearSpace{D: 2}, attrs, queries)
	idxRef, err := Build(w2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweep := partition(idxSweep).NumSubdomains()
	// A one-split cap forces the refinement to do the work.
	ref := NewPartition(context.Background(), idxRef, PartitionOptions{MaxIntersections: 1}).NumSubdomains()
	if sweep != ref {
		t.Errorf("sweep partition has %d subdomains, signature reference %d", sweep, ref)
	}
}
