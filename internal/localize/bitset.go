// Packed bit masks for the compiled localization engine: the pending
// (unexplained-observation) and alive (un-pruned element) sets are
// word-packed so membership tests on the hot prune/coverage loops are one
// shift and mask instead of a map probe.

package localize

import (
	"math/bits"

	"scout/internal/risk"
)

// bitset is a packed set of a model's elements.
type bitset []uint64

// newBitset returns a bitset able to hold elements [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) test(i risk.ElementID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i risk.ElementID) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) clear(i risk.ElementID) { b[i>>6] &^= 1 << (uint(i) & 63) }

// setRange sets elements [lo, hi).
func (b bitset) setRange(lo, hi risk.ElementID) {
	for i := lo; i < hi; i++ {
		b.set(i)
	}
}

// forEach invokes fn for every element in the set in ascending order. fn
// may clear the element it was invoked for.
func (b bitset) forEach(fn func(i risk.ElementID)) {
	for wi, w := range b {
		base := risk.ElementID(wi) << 6
		for w != 0 {
			fn(base + risk.ElementID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
