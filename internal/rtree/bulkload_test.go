package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"iq/internal/vec"
)

func TestBulkLoadMatchesInsertSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 16, 17, 100, 1000} {
		for _, d := range []int{2, 4} {
			pts := make([]vec.Vector, n)
			keys := make([]int, n)
			for i := range pts {
				pts[i] = randPoint(rng, d)
				keys[i] = i
			}
			bulk := BulkLoad(pts, keys, 16)
			if bulk.Len() != n {
				t.Fatalf("n=%d d=%d: Len=%d", n, d, bulk.Len())
			}
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			// Range queries agree with a linear scan.
			for trial := 0; trial < 5; trial++ {
				lo, hi := randPoint(rng, d), randPoint(rng, d)
				for i := range lo {
					if lo[i] > hi[i] {
						lo[i], hi[i] = hi[i], lo[i]
					}
				}
				rect := Rect{Lo: lo, Hi: hi}
				got := bulk.Search(rect, nil)
				gotKeys := make([]int, len(got))
				for i, e := range got {
					gotKeys[i] = e.Key
				}
				sort.Ints(gotKeys)
				var want []int
				for i, p := range pts {
					if rect.Contains(p) {
						want = append(want, i)
					}
				}
				if len(gotKeys) != len(want) {
					t.Fatalf("n=%d d=%d: bulk search %d, scan %d", n, d, len(gotKeys), len(want))
				}
			}
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	pts := make([]vec.Vector, n)
	keys := make([]int, n)
	for i := range pts {
		pts[i] = randPoint(rng, 3)
		keys[i] = i
	}
	tr := BulkLoad(pts, keys, 8)
	// Insertion must keep working on a bulk-loaded tree.
	for i := 0; i < 50; i++ {
		tr.Insert(randPoint(rng, 3), 1000+i)
	}
	if tr.Len() != n+50 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPanicsOnBadInput(t *testing.T) {
	assertPanics := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		fn()
	}
	assertPanics(func() { BulkLoad(nil, nil, 8) })
	assertPanics(func() { BulkLoad([]vec.Vector{{1, 2}}, []int{1, 2}, 8) })
}

func TestChunkSizes(t *testing.T) {
	for _, tc := range []struct{ n, max int }{
		{17, 16}, {32, 16}, {33, 16}, {5, 4}, {100, 7},
	} {
		sizes := chunkSizes(tc.n, tc.max)
		total := 0
		for _, s := range sizes {
			total += s
			if s > tc.max {
				t.Errorf("n=%d max=%d: chunk %d too big", tc.n, tc.max, s)
			}
			if s < tc.max/2 && len(sizes) > 1 {
				t.Errorf("n=%d max=%d: chunk %d too small", tc.n, tc.max, s)
			}
		}
		if total != tc.n {
			t.Errorf("n=%d max=%d: sizes sum to %d", tc.n, tc.max, total)
		}
	}
}

func BenchmarkBulkLoadVsInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	pts := make([]vec.Vector, n)
	keys := make([]int, n)
	for i := range pts {
		pts[i] = randPoint(rng, 3)
		keys[i] = i
	}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BulkLoad(pts, keys, 16)
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New(3, 16)
			for j := range pts {
				tr.Insert(pts[j], keys[j])
			}
		}
	})
}
