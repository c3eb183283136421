package rtree

import (
	"math"
	"sort"

	"iq/internal/vec"
)

// BulkLoad builds an R-tree from all entries at once using Sort-Tile-
// Recursive (STR) packing: entries are recursively sorted and tiled one
// dimension at a time so each leaf covers a compact tile. Compared to
// one-by-one insertion the build is faster and the resulting tree has less
// node overlap, which tightens the slab searches the improvement-query
// evaluator issues. The returned tree accepts Insert afterwards.
func BulkLoad(points []vec.Vector, keys []int, maxEntries int) *Tree {
	if len(points) != len(keys) {
		panic("rtree: BulkLoad points/keys length mismatch")
	}
	if len(points) == 0 {
		panic("rtree: BulkLoad needs at least one point")
	}
	dim := len(points[0])
	t := New(dim, maxEntries)

	entries := make([]Entry, len(points))
	for i := range points {
		entries[i] = Entry{Point: vec.Clone(points[i]), Key: keys[i]}
	}
	if len(entries) <= t.maxEntries {
		t.root = &node{leaf: true, entries: entries}
		t.root.rect = t.computeRect(t.root)
		t.size = len(entries)
		return t
	}

	strSort(entries, 0, dim, t.maxEntries)

	// Pack leaves from the STR order with even chunk sizes so every leaf
	// holds at least minEntries.
	leaves := packLeaves(t, entries)
	// Build upper levels until one root remains.
	level := leaves
	for len(level) > 1 {
		level = packParents(t, level)
	}
	t.root = level[0]
	t.root.parent = nil
	t.size = len(entries)
	return t
}

// strSort recursively orders entries: sort on dimension d, slice into
// roughly equal vertical slabs, recurse on the next dimension inside each.
func strSort(entries []Entry, d, dim, maxEntries int) {
	if len(entries) <= maxEntries || d >= dim {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Point[d] < entries[j].Point[d]
	})
	if d == dim-1 {
		return
	}
	nLeaves := int(math.Ceil(float64(len(entries)) / float64(maxEntries)))
	slabs := int(math.Ceil(math.Pow(float64(nLeaves), 1/float64(dim-d))))
	if slabs < 1 {
		slabs = 1
	}
	per := (len(entries) + slabs - 1) / slabs
	for start := 0; start < len(entries); start += per {
		end := start + per
		if end > len(entries) {
			end = len(entries)
		}
		strSort(entries[start:end], d+1, dim, maxEntries)
	}
}

// chunkSizes distributes n items into chunks of at most maxSize with every
// chunk at least ceil(n/chunks) ≥ maxSize/2 ≥ minEntries items.
func chunkSizes(n, maxSize int) []int {
	chunks := (n + maxSize - 1) / maxSize
	base := n / chunks
	extra := n % chunks
	sizes := make([]int, chunks)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

func packLeaves(t *Tree, entries []Entry) []*node {
	sizes := chunkSizes(len(entries), t.maxEntries)
	leaves := make([]*node, 0, len(sizes))
	pos := 0
	for _, size := range sizes {
		leaf := &node{leaf: true, entries: append([]Entry{}, entries[pos:pos+size]...)}
		leaf.rect = t.computeRect(leaf)
		leaves = append(leaves, leaf)
		pos += size
	}
	return leaves
}

func packParents(t *Tree, children []*node) []*node {
	// Order children by rect center along the first dimension for
	// locality; they already arrive in STR order, so this is stable glue.
	sizes := chunkSizes(len(children), t.maxEntries)
	parents := make([]*node, 0, len(sizes))
	pos := 0
	for _, size := range sizes {
		p := &node{children: append([]*node{}, children[pos:pos+size]...)}
		for _, c := range p.children {
			c.parent = p
		}
		p.rect = t.computeRect(p)
		parents = append(parents, p)
		pos += size
	}
	return parents
}
