package subdomain

import (
	"context"
	"math/rand"
	"sync"
	"testing"

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

func buildRandom(t *testing.T, rng *rand.Rand, n, m, d, maxK int, opts Options) *Index {
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
	idx, err := BuildCtx(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// partition runs Algorithm 1 over the index's current state with the
// default options.
func partition(x *Index) *Partition {
	return NewPartition(context.Background(), x, PartitionOptions{})
}

func TestBuildInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ n, m, d, maxK int }{
		{50, 40, 2, 3},
		{200, 100, 3, 5},
		{100, 60, 4, 2},
	} {
		idx := buildRandom(t, rng, cfg.n, cfg.m, cfg.d, cfg.maxK, Options{})
		p := partition(idx)
		if err := p.CheckInvariant(); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
		if p.NumSubdomains() == 0 {
			t.Errorf("cfg %+v: no subdomains", cfg)
		}
		// Every query is mapped.
		for j := 0; j < idx.Workload().NumQueries(); j++ {
			if p.SubdomainOf(j) == nil {
				t.Errorf("cfg %+v: query %d unmapped", cfg, j)
			}
		}
	}
}

func TestSubdomainsShareResults(t *testing.T) {
	// The whole point of the index: queries in one subdomain share their
	// top-k result ordering (for a common k).
	rng := rand.New(rand.NewSource(2))
	idx := buildRandom(t, rng, 150, 120, 3, 4, Options{})
	w := idx.Workload()
	p := partition(idx)
	for j := 0; j < w.NumQueries(); j++ {
		s := p.SubdomainOf(j)
		rep := s.Representative()
		if rep == j {
			continue
		}
		k := w.Query(j).K
		resJ := w.EvaluateAmong(idx.Candidates(), topk.Query{ID: j, K: k, Point: w.Query(j).Point})
		resRep := w.EvaluateAmong(idx.Candidates(), topk.Query{ID: rep, K: k, Point: w.Query(rep).Point})
		for i := range resJ.Ordered {
			if resJ.Ordered[i] != resRep.Ordered[i] {
				t.Fatalf("query %d and rep %d disagree at rank %d", j, rep, i)
			}
		}
	}
}

func TestCappedIntersectionsStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := buildRandom(t, rng, 100, 80, 3, 3, Options{})
	p := NewPartition(context.Background(), idx, PartitionOptions{MaxIntersections: 5})
	if err := p.CheckInvariant(); err != nil {
		t.Errorf("capped build unsound: %v", err)
	}
	if p.Intersections() > 5 {
		t.Errorf("processed %d intersections, cap was 5", p.Intersections())
	}
}

func TestUnrefinedUncappedStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idx := buildRandom(t, rng, 80, 60, 2, 3, Options{})
	if err := idx.algorithm1(PartitionOptions{}, false).CheckInvariant(); err != nil {
		t.Errorf("uncapped Algorithm 1 should be exact: %v", err)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := buildRandom(t, rng, 60, 40, 3, 3, Options{})
	st := idx.Stats()
	if st.Queries != 40 || st.Subdomains != partition(idx).NumSubdomains() ||
		st.Candidates != len(idx.Candidates()) || st.SizeBytes <= 0 || st.TreeNodes <= 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestEmptyQuerySet(t *testing.T) {
	w, err := topk.NewWorkload(topk.LinearSpace{D: 2}, []vec.Vector{{1, 1}, {2, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildCtx(context.Background(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := partition(idx).NumSubdomains(); n != 0 {
		t.Errorf("subdomains=%d for empty query set", n)
	}
}

func TestAddQueryJoinsOrCreates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	idx := buildRandom(t, rng, 100, 50, 3, 3, Options{})
	before := partition(idx).NumSubdomains()

	// Duplicate an existing query point: must join its subdomain.
	w := idx.Workload()
	dupOf := 17
	j, err := idx.AddQueryCtx(context.Background(), topk.Query{ID: 999, K: 2, Point: w.Query(dupOf).Point})
	if err != nil {
		t.Fatal(err)
	}
	p := partition(idx)
	if p.SubdomainOf(j).ID != p.SubdomainOf(dupOf).ID {
		t.Error("duplicate query did not join its twin's subdomain")
	}
	if p.NumSubdomains() != before {
		t.Errorf("subdomain count changed: %d -> %d", before, p.NumSubdomains())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// A far-away query point typically creates a fresh subdomain; either
	// way the invariant must hold.
	if _, err := idx.AddQueryCtx(context.Background(), topk.Query{ID: 1000, K: 1, Point: randVec(rng, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := partition(idx).CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := buildRandom(t, rng, 80, 40, 3, 3, Options{})
	if err := idx.RemoveQueryCtx(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if partition(idx).SubdomainOf(5) != nil {
		t.Error("removed query still mapped")
	}
	if err := idx.RemoveQueryCtx(context.Background(), 5); err == nil {
		t.Error("double removal accepted")
	}
	if err := idx.RemoveQueryCtx(context.Background(), -1); err == nil {
		t.Error("negative index accepted")
	}
	if err := partition(idx).CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Removing every query in a subdomain deletes it.
	p := partition(idx)
	for j := 0; j < idx.Workload().NumQueries(); j++ {
		if p.SubdomainOf(j) != nil {
			if err := idx.RemoveQueryCtx(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := partition(idx).NumSubdomains(); n != 0 {
		t.Errorf("%d subdomains after removing all queries", n)
	}
}

func TestAddObjectRepartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx := buildRandom(t, rng, 60, 50, 3, 3, Options{})
	// A dominating object certainly enters the skyband.
	id, err := idx.AddObjectCtx(context.Background(), vec.Vector{0.001, 0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.IsCandidate(id) {
		t.Error("dominating object not in candidate set")
	}
	if err := partition(idx).CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// A dominated object must not disturb anything.
	before := partition(idx).NumSubdomains()
	id2, err := idx.AddObjectCtx(context.Background(), vec.Vector{0.999, 0.999, 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if idx.IsCandidate(id2) {
		t.Error("hopeless object entered candidate set")
	}
	if partition(idx).NumSubdomains() != before {
		t.Error("dominated object changed the partition")
	}
}

func TestRemoveObjectMergesAndStaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := buildRandom(t, rng, 60, 50, 3, 3, Options{})
	// Remove a candidate object.
	cand := idx.Candidates()[0]
	if err := idx.RemoveObjectCtx(context.Background(), cand); err != nil {
		t.Fatal(err)
	}
	if idx.IsCandidate(cand) {
		t.Error("removed object still candidate")
	}
	if err := partition(idx).CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveObjectCtx(context.Background(), cand); err == nil {
		t.Error("double object removal accepted")
	}
	if err := idx.RemoveObjectCtx(context.Background(), -3); err == nil {
		t.Error("bad id accepted")
	}
	// Removing a non-candidate is a cheap no-op structurally.
	var non int = -1
	for i := 0; i < idx.Workload().NumObjects(); i++ {
		if !idx.IsCandidate(i) && !idx.Workload().IsRemoved(i) {
			non = i
			break
		}
	}
	if non >= 0 {
		before := partition(idx).NumSubdomains()
		if err := idx.RemoveObjectCtx(context.Background(), non); err != nil {
			t.Fatal(err)
		}
		if partition(idx).NumSubdomains() != before {
			t.Error("non-candidate removal changed partition")
		}
	}
}

func TestUpdatesMatchRebuild(t *testing.T) {
	// After a mixed update sequence, the index invariant holds and every
	// query's subdomain representative shares its top-k result — the same
	// guarantee a full rebuild provides.
	rng := rand.New(rand.NewSource(10))
	idx := buildRandom(t, rng, 80, 60, 3, 3, Options{})
	w := idx.Workload()
	for step := 0; step < 20; step++ {
		switch rng.Intn(4) {
		case 0:
			if _, err := idx.AddQueryCtx(context.Background(), topk.Query{ID: 2000 + step, K: 1 + rng.Intn(3), Point: randVec(rng, 3)}); err != nil {
				t.Fatal(err)
			}
		case 1:
			j := rng.Intn(w.NumQueries())
			if !w.IsQueryRemoved(j) {
				if err := idx.RemoveQueryCtx(context.Background(), j); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if _, err := idx.AddObjectCtx(context.Background(), randVec(rng, 3)); err != nil {
				t.Fatal(err)
			}
		case 3:
			i := rng.Intn(w.NumObjects())
			if !w.IsRemoved(i) && w.LiveObjects() > 10 {
				if err := idx.RemoveObjectCtx(context.Background(), i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := partition(idx).CheckInvariant(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestPartitionConcurrentBuilds: building a partition only reads the index,
// so readers of one published snapshot may build partitions of it
// concurrently (the race detector checks the reads), and every reader gets
// the same grouping.
func TestPartitionConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := buildRandom(t, rng, 80, 60, 3, 3, Options{})
	parts := make([]*Partition, 8)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = partition(idx)
		}(i)
	}
	wg.Wait()
	for i, p := range parts {
		if err := p.CheckInvariant(); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if p.NumSubdomains() != parts[0].NumSubdomains() {
			t.Fatalf("reader %d: %d subdomains, reader 0 %d", i, p.NumSubdomains(), parts[0].NumSubdomains())
		}
		for j := range idx.Workload().NumQueries() {
			if p.SubdomainOf(j).ID != parts[0].SubdomainOf(j).ID {
				t.Fatalf("reader %d put query %d in another subdomain", i, j)
			}
		}
	}
}
