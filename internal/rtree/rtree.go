// Package rtree implements an in-memory R-tree (Guttman 1984, the paper's
// reference [10]) over d-dimensional points. The improvement-query index uses
// it to store top-k query points in the function-domain (weight) space and to
// retrieve the queries falling inside an improvement strategy's affected
// subspace via range and slab searches.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"iq/internal/vec"
)

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// Rect is an axis-aligned bounding box.
type Rect struct {
	Lo, Hi vec.Vector
}

// RectOfPoint returns a degenerate rectangle covering a single point.
func RectOfPoint(p vec.Vector) Rect {
	return Rect{Lo: vec.Clone(p), Hi: vec.Clone(p)}
}

// Contains reports whether the rectangle contains point p (inclusive).
func (r Rect) Contains(p vec.Vector) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether two rectangles overlap (inclusive).
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < o.Lo[i] || o.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Enlarged returns the minimal rectangle covering both r and o.
func (r Rect) Enlarged(o Rect) Rect {
	return Rect{Lo: vec.Min(r.Lo, o.Lo), Hi: vec.Max(r.Hi, o.Hi)}
}

// EnlargementTo returns the area increase needed for r to cover o.
func (r Rect) EnlargementTo(o Rect) float64 {
	return r.Enlarged(o).Area() - r.Area()
}

// Entry is a stored point with an opaque integer key (typically a query
// index). Duplicate points with distinct keys are allowed.
type Entry struct {
	Point vec.Vector
	Key   int
}

type node struct {
	leaf     bool
	rect     Rect
	children []*node // internal nodes
	entries  []Entry // leaf nodes
	parent   *node
}

// Tree is an R-tree over d-dimensional points. The zero value is not usable;
// create trees with New.
type Tree struct {
	root       *node
	dim        int
	size       int
	maxEntries int
	minEntries int
}

// New creates an empty R-tree for points of the given dimension. maxEntries
// controls node fan-out; values < 4 are raised to 4.
func New(dim, maxEntries int) *Tree {
	if dim <= 0 {
		panic(fmt.Sprintf("rtree: invalid dimension %d", dim))
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &Tree{
		dim:        dim,
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
	}
	if t.minEntries < 2 {
		t.minEntries = 2
	}
	t.root = &node{leaf: true, rect: emptyRect(dim)}
	return t
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

func emptyRect(dim int) Rect {
	lo := make(vec.Vector, dim)
	hi := make(vec.Vector, dim)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// Insert adds a point with the given key.
func (t *Tree) Insert(p vec.Vector, key int) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("rtree: Insert dimension %d, tree dimension %d", len(p), t.dim))
	}
	e := Entry{Point: vec.Clone(p), Key: key}
	leaf := t.chooseLeaf(t.root, e)
	leaf.entries = append(leaf.entries, e)
	t.size++
	t.adjustUpward(leaf)
	if len(leaf.entries) > t.maxEntries {
		t.splitNode(leaf)
	}
}

func (t *Tree) chooseLeaf(n *node, e Entry) *node {
	for !n.leaf {
		target := RectOfPoint(e.Point)
		best := n.children[0]
		bestEnl := best.rect.EnlargementTo(target)
		bestArea := best.rect.Area()
		for _, c := range n.children[1:] {
			enl := c.rect.EnlargementTo(target)
			area := c.rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		n = best
	}
	return n
}

// adjustUpward recomputes bounding rectangles from n to the root.
func (t *Tree) adjustUpward(n *node) {
	for n != nil {
		n.rect = t.computeRect(n)
		n = n.parent
	}
}

func (t *Tree) computeRect(n *node) Rect {
	r := emptyRect(t.dim)
	if n.leaf {
		for _, e := range n.entries {
			r = r.Enlarged(RectOfPoint(e.Point))
		}
	} else {
		for _, c := range n.children {
			r = r.Enlarged(c.rect)
		}
	}
	return r
}

// splitNode performs Guttman's quadratic split on an overfull node and
// propagates splits upward as needed.
func (t *Tree) splitNode(n *node) {
	for n != nil {
		overfull := (n.leaf && len(n.entries) > t.maxEntries) ||
			(!n.leaf && len(n.children) > t.maxEntries)
		if !overfull {
			t.adjustUpward(n)
			return
		}
		sibling := t.doSplit(n)
		parent := n.parent
		if parent == nil {
			newRoot := &node{leaf: false}
			newRoot.children = []*node{n, sibling}
			n.parent = newRoot
			sibling.parent = newRoot
			newRoot.rect = t.computeRect(newRoot)
			t.root = newRoot
			return
		}
		sibling.parent = parent
		parent.children = append(parent.children, sibling)
		parent.rect = t.computeRect(parent)
		n = parent
	}
}

// item abstracts a leaf entry or child node for the split routine.
type splitItem struct {
	rect  Rect
	entry Entry
	child *node
}

func (t *Tree) doSplit(n *node) *node {
	var items []splitItem
	if n.leaf {
		items = make([]splitItem, len(n.entries))
		for i, e := range n.entries {
			items[i] = splitItem{rect: RectOfPoint(e.Point), entry: e}
		}
	} else {
		items = make([]splitItem, len(n.children))
		for i, c := range n.children {
			items[i] = splitItem{rect: c.rect, child: c}
		}
	}

	seedA, seedB := pickSeeds(items)
	groupA := []splitItem{items[seedA]}
	groupB := []splitItem{items[seedB]}
	rectA, rectB := items[seedA].rect, items[seedB].rect

	rest := make([]splitItem, 0, len(items)-2)
	for i, it := range items {
		if i != seedA && i != seedB {
			rest = append(rest, it)
		}
	}

	for len(rest) > 0 {
		// If one group must take everything remaining to reach minEntries,
		// assign wholesale.
		if len(groupA)+len(rest) <= t.minEntries {
			for _, it := range rest {
				groupA = append(groupA, it)
				rectA = rectA.Enlarged(it.rect)
			}
			break
		}
		if len(groupB)+len(rest) <= t.minEntries {
			for _, it := range rest {
				groupB = append(groupB, it)
				rectB = rectB.Enlarged(it.rect)
			}
			break
		}
		// PickNext: item with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, it := range rest {
			dA := rectA.EnlargementTo(it.rect)
			dB := rectB.EnlargementTo(it.rect)
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		it := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		dA := rectA.EnlargementTo(it.rect)
		dB := rectB.EnlargementTo(it.rect)
		toA := dA < dB ||
			(dA == dB && rectA.Area() < rectB.Area()) ||
			(dA == dB && rectA.Area() == rectB.Area() && len(groupA) <= len(groupB))
		if toA {
			groupA = append(groupA, it)
			rectA = rectA.Enlarged(it.rect)
		} else {
			groupB = append(groupB, it)
			rectB = rectB.Enlarged(it.rect)
		}
	}

	sibling := &node{leaf: n.leaf}
	if n.leaf {
		n.entries = n.entries[:0]
		for _, it := range groupA {
			n.entries = append(n.entries, it.entry)
		}
		for _, it := range groupB {
			sibling.entries = append(sibling.entries, it.entry)
		}
	} else {
		n.children = n.children[:0]
		for _, it := range groupA {
			it.child.parent = n
			n.children = append(n.children, it.child)
		}
		for _, it := range groupB {
			it.child.parent = sibling
			sibling.children = append(sibling.children, it.child)
		}
	}
	n.rect = t.computeRect(n)
	sibling.rect = t.computeRect(sibling)
	return sibling
}

// pickSeeds implements Guttman's quadratic seed selection: the pair wasting
// the most area when combined.
func pickSeeds(items []splitItem) (int, int) {
	bestA, bestB, bestWaste := 0, 1, math.Inf(-1)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			waste := items[i].rect.Enlarged(items[j].rect).Area() -
				items[i].rect.Area() - items[j].rect.Area()
			if waste > bestWaste {
				bestA, bestB, bestWaste = i, j, waste
			}
		}
	}
	return bestA, bestB
}

// Search appends to dst the entries whose points lie inside rect (inclusive)
// and returns the extended slice.
func (t *Tree) Search(rect Rect, dst []Entry) []Entry {
	return t.search(t.root, rect, dst)
}

func (t *Tree) search(n *node, rect Rect, dst []Entry) []Entry {
	if !n.rect.Intersects(rect) {
		return dst
	}
	if n.leaf {
		for _, e := range n.entries {
			if rect.Contains(e.Point) {
				dst = append(dst, e)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = t.search(c, rect, dst)
	}
	return dst
}

// SearchFunc visits every entry whose point satisfies pred, pruning subtrees
// with boxPred (boxPred must be conservative: it may return true for boxes
// containing no matching point but must never return false for boxes that
// do). This powers affected-subspace (slab) retrieval where the region is not
// a rectangle.
func (t *Tree) SearchFunc(boxPred func(lo, hi vec.Vector) bool, pred func(Entry) bool, visit func(Entry)) {
	t.searchFunc(t.root, boxPred, pred, visit)
}

func (t *Tree) searchFunc(n *node, boxPred func(lo, hi vec.Vector) bool, pred func(Entry) bool, visit func(Entry)) {
	if t.size == 0 {
		return
	}
	if !boxPred(n.rect.Lo, n.rect.Hi) {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if pred(e) {
				visit(e)
			}
		}
		return
	}
	for _, c := range n.children {
		t.searchFunc(c, boxPred, pred, visit)
	}
}

// All appends every entry to dst and returns the extended slice.
func (t *Tree) All(dst []Entry) []Entry {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			dst = append(dst, n.entries...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return dst
}

// Height returns the tree height (1 for a single leaf root). Exposed for
// index-size accounting in the benchmark harness.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// NodeCount returns the total number of nodes, used to estimate index size.
func (t *Tree) NodeCount() int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		count++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return count
}

// SizeBytes estimates the in-memory footprint of the tree: node overhead
// plus point storage. The benchmark harness reports index size as a
// percentage of the dataset size, as the paper does.
func (t *Tree) SizeBytes() int {
	const nodeOverhead = 64
	const entryOverhead = 24
	bytes := 0
	var walk func(n *node)
	walk = func(n *node) {
		bytes += nodeOverhead + 2*t.dim*8 // rect
		if n.leaf {
			bytes += len(n.entries) * (entryOverhead + t.dim*8)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return bytes
}

// CheckInvariants validates structural invariants (parent links, bounding
// rectangles, fill factors) and returns an error describing the first
// violation. Intended for tests.
func (t *Tree) CheckInvariants() error {
	var check func(n *node, depth int) (int, error)
	check = func(n *node, depth int) (int, error) {
		want := t.computeRect(n)
		if t.size > 0 && (!vec.ApproxEqual(n.rect.Lo, want.Lo, 1e-12) || !vec.ApproxEqual(n.rect.Hi, want.Hi, 1e-12)) {
			return 0, fmt.Errorf("rtree: node at depth %d has stale rect", depth)
		}
		if n.leaf {
			if n != t.root && (len(n.entries) < t.minEntries || len(n.entries) > t.maxEntries) {
				return 0, fmt.Errorf("rtree: leaf fill %d outside [%d,%d]", len(n.entries), t.minEntries, t.maxEntries)
			}
			return len(n.entries), nil
		}
		if n != t.root && (len(n.children) < t.minEntries || len(n.children) > t.maxEntries) {
			return 0, fmt.Errorf("rtree: node fill %d outside [%d,%d]", len(n.children), t.minEntries, t.maxEntries)
		}
		total := 0
		for _, c := range n.children {
			if c.parent != n {
				return 0, fmt.Errorf("rtree: broken parent link at depth %d", depth)
			}
			sub, err := check(c, depth+1)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	total, err := check(t.root, 0)
	if err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, total)
	}
	return nil
}

// SortedKeys returns all keys in ascending order; handy in tests.
func (t *Tree) SortedKeys() []int {
	entries := t.All(nil)
	keys := make([]int, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	sort.Ints(keys)
	return keys
}
