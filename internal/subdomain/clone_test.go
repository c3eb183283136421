package subdomain

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/topk"
	"iq/internal/vec"
)

func cloneFixture(t *testing.T, rng *rand.Rand, n, m int) *Index {
	t.Helper()
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = vec.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	queries := make([]topk.Query, m)
	for j := range queries {
		queries[j] = topk.Query{ID: j, K: 1 + rng.Intn(3),
			Point: vec.Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: 3}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildCtx(context.Background(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func signatureOf(x *Index) map[int]uint64 {
	sigs := map[int]uint64{}
	for j := 0; j < x.w.NumQueries(); j++ {
		if !x.w.IsQueryRemoved(j) {
			sigs[j] = x.rankingSignature(x.w.Query(j).Point)
		}
	}
	return sigs
}

// Clone must produce a fully independent index: mutating the clone leaves
// the original untouched (and vice versa), both stay internally consistent,
// and the clone starts answering identically.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	idx := cloneFixture(t, rng, 60, 40)
	origSigs := signatureOf(idx)
	origStats := idx.Stats()

	clone := idx.CloneCtx(context.Background(), idx.Workload().Clone())
	if clone.Epoch() != idx.Epoch() {
		t.Fatalf("epoch drifted on clone: %d vs %d", clone.Epoch(), idx.Epoch())
	}
	if got := clone.Stats(); got != origStats {
		t.Fatalf("clone stats %+v, original %+v", got, origStats)
	}

	// Mutate the clone heavily.
	if err := clone.UpdateObjectCtx(context.Background(), 4, vec.Vector{0.01, 0.02, 0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.AddObjectCtx(context.Background(), vec.Vector{0.05, 0.05, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.AddQueryCtx(context.Background(), topk.Query{ID: 900, K: 2, Point: vec.Vector{0.2, 0.3, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := clone.RemoveQueryCtx(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if err := clone.RemoveObjectCtx(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	if err := partition(clone).CheckInvariant(); err != nil {
		t.Fatalf("clone invariant after mutations: %v", err)
	}

	// Original is bit-for-bit untouched.
	if got := idx.Stats(); got != origStats {
		t.Fatalf("original stats changed: %+v vs %+v", got, origStats)
	}
	if err := partition(idx).CheckInvariant(); err != nil {
		t.Fatalf("original invariant after clone mutations: %v", err)
	}
	for j, sig := range signatureOf(idx) {
		if origSigs[j] != sig {
			t.Fatalf("original ranking for query %d changed after clone mutation", j)
		}
	}
	if idx.Workload().NumObjects() != 60 || idx.Workload().NumQueries() != 40 {
		t.Fatalf("original workload resized: %d objects, %d queries",
			idx.Workload().NumObjects(), idx.Workload().NumQueries())
	}
	if clone.Epoch() <= idx.Epoch() {
		t.Fatalf("clone epoch %d did not advance past original %d", clone.Epoch(), idx.Epoch())
	}
}
