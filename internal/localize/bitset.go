// Packed bit masks for the compiled localization engine: the pending
// (unexplained-observation) and alive (un-pruned element) sets are
// word-packed so membership tests on the hot prune/coverage loops are one
// shift and mask instead of a map probe.

package localize

import "math/bits"

// bitset is a packed set of small non-negative integers.
type bitset []uint64

// newBitset returns a bitset able to hold values in [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) test(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (uint32(i) & 63) }

// setRange sets bits [lo, hi).
func (b bitset) setRange(lo, hi int32) {
	for i := lo; i < hi; i++ {
		b.set(i)
	}
}

// forEach invokes fn for every set bit in ascending order. fn may clear
// the bit it was invoked for.
func (b bitset) forEach(fn func(i int32)) {
	for wi, w := range b {
		base := int32(wi) << 6
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
