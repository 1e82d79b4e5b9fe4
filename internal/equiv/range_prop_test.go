package equiv

import (
	"math/rand"
	"testing"

	"scout/internal/bdd"
	"scout/internal/oracle"
)

// assignBits expands value into a big-endian assignment of width vars
// starting at off (matching the encoders' most-significant-bit-first
// layout).
func assignBits(numVars, off, width int, value uint32) []bool {
	assign := make([]bool, numVars)
	for i := 0; i < width; i++ {
		assign[off+i] = (value>>uint(width-1-i))&1 == 1
	}
	return assign
}

// TestRangeBDDBruteForce brute-forces the three comparator encoders
// against direct enumeration at small widths: every value of the field
// is evaluated against randomized bounds — including inverted (lo > hi)
// and full ([0, max]) ranges — and must agree with the arithmetic
// predicate.
func TestRangeBDDBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, width := range []int{1, 2, 3, 5, 8} {
		max := uint32(1)<<uint(width) - 1
		m := bdd.NewManager(width)
		// Deterministic edge pairs plus randomized ones.
		pairs := [][2]uint32{
			{0, max},           // full range
			{0, 0}, {max, max}, // single-value extremes
			{max, 0}, // fully inverted
		}
		for i := 0; i < 40; i++ {
			pairs = append(pairs, [2]uint32{rng.Uint32() & max, rng.Uint32() & max})
		}
		for _, p := range pairs {
			lo, hi := p[0], p[1]
			le := leBDD(m, 0, width, 0, hi)
			ge := geBDD(m, 0, width, 0, lo)
			rg := rangeBDD(m, 0, width, lo, hi)
			for v := uint32(0); v <= max; v++ {
				assign := assignBits(width, 0, width, v)
				if got, want := oracle.Eval(m, le, assign), v <= hi; got != want {
					t.Fatalf("width=%d leBDD(%d): value %d → %v, want %v", width, hi, v, got, want)
				}
				if got, want := oracle.Eval(m, ge, assign), v >= lo; got != want {
					t.Fatalf("width=%d geBDD(%d): value %d → %v, want %v", width, lo, v, got, want)
				}
				if got, want := oracle.Eval(m, rg, assign), lo <= v && v <= hi; got != want {
					t.Fatalf("width=%d rangeBDD(%d,%d): value %d → %v, want %v", width, lo, hi, v, got, want)
				}
			}
			// Cross-check the satisfying-assignment count arithmetically.
			wantCount := 0.0
			if lo <= hi {
				wantCount = float64(hi - lo + 1)
			}
			if got := oracle.SatCount(m, width, rg); got != wantCount {
				t.Fatalf("width=%d rangeBDD(%d,%d): SatCount = %v, want %v", width, lo, hi, got, wantCount)
			}
		}
	}
}

// TestRangeBDDAtFieldOffset pins the encoders at a nonzero offset inside
// a wider manager (how the checker actually uses them: the port field
// sits at portOff): bits outside the field must be don't-cares.
func TestRangeBDDAtFieldOffset(t *testing.T) {
	const numVars, off, width = 12, 3, 5
	max := uint32(1)<<width - 1
	m := bdd.NewManager(numVars)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		lo, hi := rng.Uint32()&max, rng.Uint32()&max
		rg := rangeBDD(m, off, width, lo, hi)
		for v := uint32(0); v <= max; v++ {
			assign := assignBits(numVars, off, width, v)
			// Scramble the out-of-field bits; they must not matter.
			for j := 0; j < numVars; j++ {
				if j < off || j >= off+width {
					assign[j] = rng.Intn(2) == 0
				}
			}
			if got, want := oracle.Eval(m, rg, assign), lo <= v && v <= hi; got != want {
				t.Fatalf("off=%d rangeBDD(%d,%d): value %d → %v, want %v", off, lo, hi, v, got, want)
			}
		}
	}
}
