package risk

import "slices"

// Fold is (*Overlay).fold, for the runner's marked model.
func Fold(o *Overlay) *Model { return o.fold() }

// FailureSignature is the sorted IDs of an overlay's observations, read
// off its marks.
func FailureSignature(o *Overlay) []ElementID {
	out := make([]ElementID, len(o.marks))
	for i, mk := range o.marks {
		out[i] = mk.El - o.lo
	}
	return slices.Compact(out)
}
