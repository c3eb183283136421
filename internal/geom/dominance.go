package geom

import (
	"cmp"
	"slices"
	"sort"

	"iq/internal/vec"
)

// Dominance utilities. The library scores objects lower-is-better, so object
// a dominates object b when a is ≤ b on every attribute and < on at least
// one: no non-negative linear utility can then rank b above a. This mirrors
// the dominance relationship exploited by the paper's reference [26] and is
// what lets the subdomain index restrict itself to the k-skyband (see
// DESIGN.md, "Arrangement scale").

// DominanceCount returns, for every point, how many other points dominate it
// (lower-is-better semantics). The simple O(n²·d) algorithm is the tests'
// oracle; KSkyband uses a sorted sweep with early exit for speed.
func DominanceCount(points []vec.Vector) []int {
	counts := make([]int, len(points))
	for i := range points {
		for j := range points {
			if i != j && vec.Dominates(points[j], points[i]) {
				counts[i]++
			}
		}
	}
	return counts
}

// KSkyband returns the indices of all points dominated by fewer than k other
// points, ascending, and each one's exact dominator count. Only those points
// can appear in the top-k of any query with non-negative weights, so
// intersections among them are the only ones that can move an object into
// or out of a top-k result.
//
// The implementation sweeps the points in SweepOrder and counts a point's
// dominators among the band found so far, stopping at k, giving O(n·s·d)
// where s is the skyband size for typical inputs. Every dominator of a band
// member is itself a member and comes earlier in the sweep, so a member's
// count is exact.
func KSkyband(points []vec.Vector, k int) (band, counts []int) {
	if k <= 0 {
		return nil, nil
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	SweepOrder(order, func(i int) vec.Vector { return points[i] })

	count := make([]int, len(points))
	for _, idx := range order {
		p := points[idx]
		dominators := 0
		for _, b := range band {
			if vec.Dominates(points[b], p) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			band = append(band, idx)
			count[idx] = dominators
		}
	}
	sort.Ints(band)
	counts = make([]int, len(band))
	for i, b := range band {
		counts[i] = count[b]
	}
	return band, counts
}

// SweepOrder sorts ids, which name the points at(id), into a linear
// extension of dominance: by coordinate sum, then lexicographically by
// coordinates, then by id. A dominator's sum is never larger, even rounded
// (floating-point addition is monotone), and when rounding ties the sums its
// first differing coordinate is the smaller one, so every point comes after
// all the points that dominate it.
func SweepOrder(ids []int, at func(int) vec.Vector) {
	type key struct {
		p   vec.Vector
		sum float64
		id  int
	}
	keys := make([]key, len(ids))
	for i, id := range ids {
		p := at(id)
		keys[i] = key{p: p, sum: vec.Sum(p), id: id}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.sum != b.sum {
			return cmp.Compare(a.sum, b.sum)
		}
		if c := slices.Compare(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, k := range keys {
		ids[i] = k.id
	}
}

// ConvexHull2 computes the convex hull of 2-D points using Andrew's monotone
// chain, returning hull vertices in counter-clockwise order. Used by the
// layer-based comparisons and as a building block for the dominant-graph
// baseline's layer peeling in two dimensions.
func ConvexHull2(pts []Point2) []Point2 {
	n := len(pts)
	if n < 3 {
		out := make([]Point2, n)
		copy(out, pts)
		return out
	}
	sorted := make([]Point2, n)
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})

	hull := make([]Point2, 0, 2*n)
	// Lower hull.
	for _, p := range sorted {
		for len(hull) >= 2 && crossOrient(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && crossOrient(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

func crossOrient(o, a, b Point2) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
}

// SkylineLayers peels points into dominance layers: layer 0 is the skyline
// (no dominators), layer i+1 is the skyline after removing layers ≤ i. The
// returned slice maps layer → point indices. This is the structure underlying
// the dominant-graph baseline index.
func SkylineLayers(points []vec.Vector) [][]int {
	n := len(points)
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	left := n
	var layers [][]int
	for left > 0 {
		var layer []int
		for i := 0; i < n; i++ {
			if !remaining[i] {
				continue
			}
			dominated := false
			for j := 0; j < n; j++ {
				if j != i && remaining[j] && vec.Dominates(points[j], points[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				layer = append(layer, i)
			}
		}
		if len(layer) == 0 {
			// All remaining points are pairwise equal duplicates that
			// "dominate" each other is impossible (Dominates is strict),
			// so an empty layer means a logic error; guard against an
			// infinite loop by flushing the rest.
			for i := 0; i < n; i++ {
				if remaining[i] {
					layer = append(layer, i)
				}
			}
		}
		for _, i := range layer {
			remaining[i] = false
		}
		left -= len(layer)
		layers = append(layers, layer)
	}
	return layers
}
