package bitset

import (
	"math/rand"
	"testing"
)

// count returns the number of set bits below n, read through Get.
func count(b *Bits, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}

func TestBasicOps(t *testing.T) {
	b := New(130)
	if c := count(b, 130); c != 0 {
		t.Fatalf("fresh bits: count=%d", c)
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if c := count(b, 130); c != 8 {
		t.Fatalf("count = %d, want 8", c)
	}
	b.Set(64) // setting a set bit changes nothing
	if c := count(b, 130); c != 8 {
		t.Fatalf("count after re-set = %d, want 8", c)
	}
	b.Reset()
	if c := count(b, 130); c != 0 {
		t.Fatalf("reset left %d bits", c)
	}
}

func TestOutOfRange(t *testing.T) {
	b := New(10)
	if b.Get(-1) || b.Get(10) || b.Get(1<<20) {
		t.Fatal("out-of-range Get must read false")
	}
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(%d) must panic", i)
				}
			}()
			b.Set(i)
		}()
	}
	if New(-5).Get(0) {
		t.Fatal("a negative capacity must hold no bits")
	}
}

func TestGrowPreserves(t *testing.T) {
	b := New(5)
	b.Set(1)
	b.Set(4)
	b.Grow(200)
	if !b.Get(1) || !b.Get(4) || count(b, 200) != 2 {
		t.Fatal("grow lost or invented bits")
	}
	b.Set(199)
	if !b.Get(199) {
		t.Fatal("bit beyond old capacity not settable")
	}
	b.Grow(50) // shrink is a no-op
	if !b.Get(199) || count(b, 200) != 3 {
		t.Fatal("shrinking Grow must be a no-op")
	}
	// A Reset bitset grown into its spare words reads clear there.
	b.Reset()
	b.Grow(256)
	if count(b, 256) != 0 {
		t.Fatal("grow after reset invented bits")
	}
}

// Model check against map semantics under a random op stream of Set, Get,
// Reset and Grow.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 257
	b := New(n)
	m := map[int]bool{}
	for op := 0; op < 5000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(20) {
		case 0:
			b.Reset()
			clear(m)
		case 1:
			n += rng.Intn(70)
			b.Grow(n)
		case 2, 3, 4, 5, 6, 7, 8, 9:
			b.Set(i)
			m[i] = true
		default:
			if b.Get(i) != m[i] {
				t.Fatalf("op %d: Get(%d) = %v, want %v", op, i, b.Get(i), m[i])
			}
		}
	}
	if c := count(b, n); c != len(m) {
		t.Fatalf("count = %d, want %d", c, len(m))
	}
}
