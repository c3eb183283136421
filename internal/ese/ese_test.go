package ese

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

func randVec(rng *rand.Rand, d int) vec.Vector {
	v := make(vec.Vector, d)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func buildFixture(t *testing.T, rng *rand.Rand, n, m, d, maxK int) *subdomain.Index {
	t.Helper()
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = randVec(rng, d)
	}
	queries := make([]topk.Query, m)
	for j := range queries {
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(maxK), Point: randVec(rng, d)}
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: d}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// partition runs Algorithm 1 over the index's current state with the
// default options.
func partition(idx *subdomain.Index) *subdomain.Partition {
	return subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{})
}

func TestBaseHitsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := buildFixture(t, rng, 120, 80, 3, 4)
	w := idx.Workload()
	p := partition(idx)
	for target := 0; target < 20; target++ {
		e, err := New(p, target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.HitsExact(w.Attrs(target), target)
		if err != nil {
			t.Fatal(err)
		}
		if e.BaseHits() != want {
			t.Errorf("target %d: ESE base hits %d, brute force %d", target, e.BaseHits(), want)
		}
	}
}

// The central correctness property of Algorithm 2: for arbitrary strategies,
// ESE's H(p_i + s) equals brute-force re-evaluation of every query.
func TestHitsMatchBruteForceRandomStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx := buildFixture(t, rng, 100, 70, 3, 4)
	w := idx.Workload()
	p := partition(idx)
	for trial := 0; trial < 120; trial++ {
		target := rng.Intn(w.NumObjects())
		e, err := New(p, target)
		if err != nil {
			t.Fatal(err)
		}
		// Strategies of all kinds: small improvements, degradations,
		// mixed-sign, large jumps.
		s := make(vec.Vector, 3)
		scale := []float64{0.05, 0.3, 1.5}[rng.Intn(3)]
		for i := range s {
			s[i] = (rng.Float64()*2 - 1) * scale
		}
		got, err := e.Hits(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.HitsExact(vec.Add(w.Attrs(target), s), target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d target %d s=%v: ESE %d, brute force %d",
				trial, target, s, got, want)
		}
	}
}

func TestHitSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := buildFixture(t, rng, 80, 60, 3, 3)
	w := idx.Workload()
	p := partition(idx)
	for trial := 0; trial < 40; trial++ {
		target := rng.Intn(w.NumObjects())
		e, err := New(p, target)
		if err != nil {
			t.Fatal(err)
		}
		s := make(vec.Vector, 3)
		for i := range s {
			s[i] = (rng.Float64()*2 - 1) * 0.4
		}
		attrs := vec.Add(w.Attrs(target), s)
		coeff, err := w.Space().Embed(attrs)
		if err != nil {
			t.Fatal(err)
		}
		got := e.HitSet(coeff)
		want, err := w.HitSet(attrs, target)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: hit set size %d want %d", trial, len(got), len(want))
		}
		for _, j := range want {
			if !got[j] {
				t.Fatalf("trial %d: query %d missing from ESE hit set", trial, j)
			}
		}
	}
}

func TestZeroStrategyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idx := buildFixture(t, rng, 60, 40, 2, 3)
	e, err := New(partition(idx), 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Hits(vec.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != e.BaseHits() {
		t.Errorf("zero strategy: %d != base %d", got, e.BaseHits())
	}
}

func TestDominatingImprovementHitsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := buildFixture(t, rng, 50, 30, 3, 2)
	w := idx.Workload()
	e, err := New(partition(idx), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Move the target to the origin: best possible score for every
	// non-negative query → hits all queries.
	s := vec.Scale(w.Attrs(0), -1)
	got, err := e.Hits(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != w.NumQueries() {
		t.Errorf("origin target hits %d of %d queries", got, w.NumQueries())
	}
}

func TestNonLinearSpaceStrategies(t *testing.T) {
	// Polynomial utility space: ESE must agree with brute force when the
	// embedding is non-linear in the strategy.
	rng := rand.New(rand.NewSource(6))
	space, err := topk.NewExprSpace("w1 * a^2 + w2 * (a * b) + w3 * b",
		[]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	n, m := 60, 40
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = vec.Vector{rng.Float64() + 0.1, rng.Float64() + 0.1}
	}
	queries := make([]topk.Query, m)
	for j := range queries {
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(3), Point: randVec(rng, 3)}
	}
	w, err := topk.NewWorkload(space, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := partition(idx)
	for trial := 0; trial < 40; trial++ {
		target := rng.Intn(n)
		e, err := New(p, target)
		if err != nil {
			t.Fatal(err)
		}
		s := vec.Vector{(rng.Float64() - 0.5) * 0.2, (rng.Float64() - 0.5) * 0.2}
		// Keep attributes positive for the embedding.
		improved := vec.Add(w.Attrs(target), s)
		if improved[0] <= 0 || improved[1] <= 0 {
			continue
		}
		got, err := e.Hits(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.HitsExact(improved, target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: non-linear ESE %d, brute force %d", trial, got, want)
		}
	}
}

func TestEvaluatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := buildFixture(t, rng, 20, 10, 2, 2)
	p := partition(idx)
	if _, err := New(p, -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := New(p, 999); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := NewCtx(context.Background(), idx, 999); err == nil {
		t.Error("NewCtx accepted an out-of-range target")
	}
	if err := idx.RemoveObjectCtx(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, 3); err == nil {
		t.Error("removed target accepted")
	}
	if _, err := NewCtx(context.Background(), idx, 3); err == nil {
		t.Error("NewCtx accepted a removed target")
	}
}

func TestStatsProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx := buildFixture(t, rng, 40, 30, 2, 2)
	e, err := New(partition(idx), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Hits(vec.Vector{-0.2, -0.2}); err != nil {
		t.Fatal(err)
	}
	if e.RanksCached() == 0 {
		t.Error("no ranks cached after construction")
	}
	if e.Target() != 0 {
		t.Error("Target accessor")
	}
}

// A live evaluator must not serve stale cached ranks after the index
// mutates underneath it: its caches are epoch-tagged and rebuild on the
// next call. Regression test for the Algorithm 2 patching precondition —
// cached per-subdomain rankings are only valid within one index epoch.
func TestEvaluatorCacheInvalidatedByCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	idx := buildFixture(t, rng, 80, 50, 3, 3)
	w := idx.Workload()
	target := 5
	e, err := New(partition(idx), target)
	if err != nil {
		t.Fatal(err)
	}
	before := e.BaseHits()

	// Commit an aggressive improvement to a *different* object: rankings
	// shift under the evaluator's cached per-subdomain ranks.
	other := 17
	improved := vec.Scale(w.Attrs(other), 0.1)
	if err := idx.UpdateObjectCtx(context.Background(), other, improved); err != nil {
		t.Fatal(err)
	}

	// Base hits must now match a fresh brute-force recount, not the
	// pre-commit cache.
	want, err := w.HitsExact(w.Attrs(target), target)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.BaseHits(); got != want {
		t.Fatalf("stale cache: BaseHits %d (pre-commit %d), brute force %d", got, before, want)
	}

	// Strategy evaluation after the commit must also match brute force.
	for trial := 0; trial < 20; trial++ {
		s := vec.Vector{-0.3 * rng.Float64(), -0.3 * rng.Float64(), -0.3 * rng.Float64()}
		got, err := e.Hits(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.HitsExact(vec.Add(w.Attrs(target), s), target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: post-commit ESE %d, brute force %d", trial, got, want)
		}
	}
}

// Adding and removing queries/objects after evaluator construction must
// neither panic (the delta buffer is sized to the query count at build
// time) nor return stale counts, and the evaluator's rebuilt partition keeps
// the options it was built with.
func TestEvaluatorSurvivesSubdomainUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	idx := buildFixture(t, rng, 60, 30, 3, 3)
	w := idx.Workload()
	target := 3
	opts := subdomain.PartitionOptions{TreeFanout: 4, MaxIntersections: 50}
	e, err := New(subdomain.NewPartition(context.Background(), idx, opts), target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddQueryCtx(context.Background(), topk.Query{ID: 500, K: 2, Point: vec.Vector{0.4, 0.3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddObjectCtx(context.Background(), vec.Vector{0.15, 0.2, 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveQueryCtx(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	s := vec.Vector{-0.2, -0.1, -0.15}
	got, err := e.Hits(s) // would index out of range on the stale buffer
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.HitsExact(vec.Add(w.Attrs(target), s), target)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after updates: ESE %d, brute force %d", got, want)
	}
	if e.part.Epoch() != idx.Epoch() || e.part.Options() != opts {
		t.Fatalf("rebuilt partition: epoch %d options %+v, want epoch %d options %+v",
			e.part.Epoch(), e.part.Options(), idx.Epoch(), opts)
	}
}

// TestNewCtxBuildsItsPartition: NewCtx runs Algorithm 1 with the default
// options inside its "ese/build" span, and its evaluator counts like one
// built by New over a partition the caller built.
func TestNewCtxBuildsItsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := buildFixture(t, rng, 60, 40, 3, 3)
	tr := obs.NewTrace("ese", 64)
	traced, err := NewCtx(obs.WithTrace(context.Background(), tr), idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tree bytes.Buffer
	if err := obs.WriteTree(&tree, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.String(), "  ese/build ") || !strings.Contains(tree.String(), "\n    index/partition ") {
		t.Fatalf("want index/partition inside ese/build:\n%s", tree.String())
	}
	plain, err := New(partition(idx), 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		s := vec.Vector{-0.3 * rng.Float64(), -0.3 * rng.Float64(), -0.3 * rng.Float64()}
		a, err := traced.Hits(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Hits(s)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: NewCtx evaluator counts %d, New %d", trial, a, b)
		}
	}
}
