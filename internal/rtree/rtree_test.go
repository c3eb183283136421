package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"iq/internal/vec"
)

func randPoint(rng *rand.Rand, d int) vec.Vector {
	p := make(vec.Vector, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(2, 8)
	pts := []vec.Vector{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}, {0.2, 0.8}}
	for i, p := range pts {
		tr.Insert(p, i)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len=%d", tr.Len())
	}
	got := tr.Search(Rect{Lo: vec.Vector{0, 0}, Hi: vec.Vector{0.6, 0.6}}, nil)
	keys := map[int]bool{}
	for _, e := range got {
		keys[e.Key] = true
	}
	if len(got) != 2 || !keys[0] || !keys[1] {
		t.Errorf("range search keys=%v", keys)
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 100, 1000} {
		for _, d := range []int{2, 3, 5} {
			tr := New(d, 8)
			pts := make([]vec.Vector, n)
			for i := 0; i < n; i++ {
				pts[i] = randPoint(rng, d)
				tr.Insert(pts[i], i)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			for trial := 0; trial < 10; trial++ {
				lo, hi := randPoint(rng, d), randPoint(rng, d)
				for i := range lo {
					if lo[i] > hi[i] {
						lo[i], hi[i] = hi[i], lo[i]
					}
				}
				rect := Rect{Lo: lo, Hi: hi}
				got := tr.Search(rect, nil)
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
					t.Fatalf("n=%d d=%d: search %d results, scan %d", n, d, len(gotKeys), len(want))
				}
				for i := range want {
					if gotKeys[i] != want[i] {
						t.Fatalf("n=%d d=%d: key mismatch at %d", n, d, i)
					}
				}
			}
		}
	}
}

func TestSearchFuncSlab(t *testing.T) {
	// A diagonal band x+y in [0.9, 1.1] over the unit square.
	rng := rand.New(rand.NewSource(4))
	tr := New(2, 8)
	pts := make([]vec.Vector, 500)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		tr.Insert(pts[i], i)
	}
	inBand := func(p vec.Vector) bool {
		s := p[0] + p[1]
		return s >= 0.9 && s <= 1.1
	}
	boxPred := func(lo, hi vec.Vector) bool {
		// Conservative: min over box of x+y <= 1.1 and max >= 0.9.
		return lo[0]+lo[1] <= 1.1 && hi[0]+hi[1] >= 0.9
	}
	var got []int
	tr.SearchFunc(boxPred, func(e Entry) bool { return inBand(e.Point) }, func(e Entry) { got = append(got, e.Key) })
	sort.Ints(got)
	var want []int
	for i, p := range pts {
		if inBand(p) {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("slab search %d results, scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(2, 4)
	p := vec.Vector{0.5, 0.5}
	for i := 0; i < 20; i++ {
		tr.Insert(p, i)
	}
	got := tr.Search(RectOfPoint(p), nil)
	if len(got) != 20 {
		t.Fatalf("duplicates: found %d want 20", len(got))
	}
	if tr.Len() != 20 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertedPointIsCopied(t *testing.T) {
	tr := New(2, 4)
	p := vec.Vector{0.1, 0.2}
	tr.Insert(p, 0)
	p[0] = 0.99 // mutate caller's slice
	got := tr.Search(Rect{Lo: vec.Vector{0, 0}, Hi: vec.Vector{0.5, 0.5}}, nil)
	if len(got) != 1 {
		t.Error("tree shared caller's backing array")
	}
}

func TestStatsAccessors(t *testing.T) {
	tr := New(3, 4)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		tr.Insert(randPoint(rng, 3), i)
	}
	if tr.Dim() != 3 {
		t.Errorf("Dim=%d", tr.Dim())
	}
	if tr.Height() < 2 {
		t.Errorf("Height=%d, expected multi-level tree", tr.Height())
	}
	if tr.NodeCount() < tr.Height() {
		t.Errorf("NodeCount=%d", tr.NodeCount())
	}
	if tr.SizeBytes() <= 0 {
		t.Errorf("SizeBytes=%d", tr.SizeBytes())
	}
	keys := tr.SortedKeys()
	if len(keys) != 200 || keys[0] != 0 || keys[199] != 199 {
		t.Errorf("SortedKeys wrong: len=%d", len(keys))
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{Lo: vec.Vector{0, 0}, Hi: vec.Vector{2, 3}}
	if r.Area() != 6 {
		t.Errorf("Area=%v", r.Area())
	}
	o := Rect{Lo: vec.Vector{1, 1}, Hi: vec.Vector{3, 4}}
	if !r.Intersects(o) || !o.Intersects(r) {
		t.Error("Intersects false negative")
	}
	far := Rect{Lo: vec.Vector{5, 5}, Hi: vec.Vector{6, 6}}
	if r.Intersects(far) {
		t.Error("Intersects false positive")
	}
	e := r.Enlarged(far)
	if !vec.Equal(e.Lo, vec.Vector{0, 0}) || !vec.Equal(e.Hi, vec.Vector{6, 6}) {
		t.Errorf("Enlarged=%v", e)
	}
}
