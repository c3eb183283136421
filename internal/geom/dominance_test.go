package geom

import (
	"math/rand"
	"sort"
	"testing"

	"iq/internal/vec"
)

func TestDominanceCount(t *testing.T) {
	pts := []vec.Vector{
		{0, 0}, // dominates everything else
		{1, 1},
		{2, 0.5},
		{0.5, 2},
		{3, 3}, // dominated by all others
	}
	counts := DominanceCount(pts)
	want := []int{0, 1, 1, 1, 4}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("point %d: count %d want %d", i, counts[i], want[i])
		}
	}
}

func TestKSkybandMatchesDominanceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 30; iter++ {
		n := 10 + rng.Intn(60)
		d := 2 + rng.Intn(3)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = make(vec.Vector, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		for _, k := range []int{1, 2, 5} {
			got, gotCounts := KSkyband(pts, k)
			counts := DominanceCount(pts)
			var want []int
			for i, c := range counts {
				if c < k {
					want = append(want, i)
				}
			}
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("iter %d k=%d: got %d members want %d", iter, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("iter %d k=%d member %d: got %d want %d", iter, k, i, got[i], want[i])
				}
				if gotCounts[i] != counts[got[i]] {
					t.Fatalf("iter %d k=%d member %d: count %d want %d", iter, k, got[i], gotCounts[i], counts[got[i]])
				}
			}
		}
	}
}

func TestKSkybandEdgeCases(t *testing.T) {
	if got, _ := KSkyband(nil, 3); got != nil {
		t.Errorf("empty input: %v", got)
	}
	if got, _ := KSkyband([]vec.Vector{{1, 2}}, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// Duplicates never dominate each other (strict), so all stay for k=1.
	dups := []vec.Vector{{1, 1}, {1, 1}, {1, 1}}
	if got, _ := KSkyband(dups, 1); len(got) != 3 {
		t.Errorf("duplicates: got %d members, want 3", len(got))
	}
	// Rounding ties the two sums at 1e16, so only the coordinate order
	// sweeps the dominator first: point 1 dominates point 0.
	tie := []vec.Vector{{1e16, 1, 0}, {1e16, 0, 0}}
	if vec.Sum(tie[0]) != vec.Sum(tie[1]) {
		t.Fatal("the sums no longer tie")
	}
	if got, counts := KSkyband(tie, 1); len(got) != 1 || got[0] != 1 || counts[0] != 0 {
		t.Errorf("sum tie: got %v with counts %v, want [1] with [0] (DominanceCount %v)", got, counts, DominanceCount(tie))
	}
}

func TestConvexHull2Square(t *testing.T) {
	pts := []Point2{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	hull := ConvexHull2(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size %d want 4: %v", len(hull), hull)
	}
	// All corner points must be present.
	corners := map[Point2]bool{{0, 0}: false, {1, 0}: false, {1, 1}: false, {0, 1}: false}
	for _, p := range hull {
		if _, ok := corners[p]; ok {
			corners[p] = true
		}
	}
	for c, seen := range corners {
		if !seen {
			t.Errorf("corner %v missing from hull", c)
		}
	}
}

func TestConvexHull2Degenerate(t *testing.T) {
	two := []Point2{{0, 0}, {1, 1}}
	if got := ConvexHull2(two); len(got) != 2 {
		t.Errorf("2 points: hull %v", got)
	}
	collinear := []Point2{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	hull := ConvexHull2(collinear)
	if len(hull) != 2 {
		t.Errorf("collinear points: hull has %d points, want 2 endpoints: %v", len(hull), hull)
	}
}

// Property: every input point is inside or on the hull (checked via
// orientation against all hull edges).
func TestQuickHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(40)
		pts := make([]Point2, n)
		for i := range pts {
			pts[i] = Point2{rng.Float64(), rng.Float64()}
		}
		hull := ConvexHull2(pts)
		if len(hull) < 3 {
			continue
		}
		for _, p := range pts {
			for i := range hull {
				a, b := hull[i], hull[(i+1)%len(hull)]
				if crossOrient(a, b, p) < -1e-9 {
					t.Fatalf("point %v outside hull edge %v-%v", p, a, b)
				}
			}
		}
	}
}

func TestSkylineLayers(t *testing.T) {
	pts := []vec.Vector{
		{0, 0},     // layer 0
		{1, 1},     // layer 1
		{2, 2},     // layer 2
		{0.5, 3},   // layer 1 (only dominated by {0,0})
		{2.5, 2.5}, // layer 3 (dominated by 0,1,2)
	}
	layers := SkylineLayers(pts)
	if len(layers) != 4 {
		t.Fatalf("got %d layers: %v", len(layers), layers)
	}
	if len(layers[0]) != 1 || layers[0][0] != 0 {
		t.Errorf("layer 0 = %v", layers[0])
	}
	if len(layers[1]) != 2 {
		t.Errorf("layer 1 = %v", layers[1])
	}
}

func TestSkylineLayersAllDuplicates(t *testing.T) {
	pts := []vec.Vector{{1, 1}, {1, 1}, {1, 1}}
	layers := SkylineLayers(pts)
	if len(layers) != 1 || len(layers[0]) != 3 {
		t.Errorf("duplicates should form one layer: %v", layers)
	}
}
