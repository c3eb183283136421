// Package bitset provides a small fixed-capacity bitset over query indices.
// The multi-target solver keeps one hit set per target and one per
// candidate, and hitTable.hitSet fills them; a map[int]bool there costs an
// allocation and a hash per lookup, while a []uint64 word array costs
// neither. The type is deliberately minimal — exactly the operations those
// users need — and is not safe for concurrent mutation (each solve owns its
// own Bits).
package bitset

// Bits is a fixed-capacity bitset over [0, n).
type Bits struct {
	words []uint64
	n     int
}

// New returns a Bits with capacity for n bits, all clear.
func New(n int) *Bits {
	if n < 0 {
		n = 0
	}
	return &Bits{words: make([]uint64, (n+63)/64), n: n}
}

// Reset clears every bit, keeping the backing array.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Grow ensures capacity for n bits, preserving set bits. Shrinking is a
// no-op; the extra capacity stays usable.
func (b *Bits) Grow(n int) {
	if n <= b.n {
		return
	}
	need := (n + 63) / 64
	if need > len(b.words) {
		w := make([]uint64, need)
		copy(w, b.words)
		b.words = w
	}
	b.n = n
}

// Set sets bit i. It panics on out-of-range i, matching slice semantics.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: Set out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports bit i. Out-of-range indices read as false, so callers sized
// for an older, smaller workload fail soft rather than panic.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}
