package risk

import (
	"slices"

	"scout/internal/object"
)

// The quantities below are read by tests only, so they are derived from
// View's methods here rather than implemented by each view kind.

// isObservation reports whether el has at least one failed edge.
func isObservation(v View, el ElementID) bool {
	return slices.Contains(v.FailureSignature(), el)
}

// edgeFailed reports whether the edge el↔ref exists and is marked fail.
func edgeFailed(v View, el ElementID, ref object.Ref) bool {
	return slices.Contains(v.FailedElementsOf(ref), el)
}

// risksOf returns the refs el depends on, sorted.
func risksOf(v View, el ElementID) []object.Ref {
	var out []object.Ref
	for _, ref := range v.Risks() {
		if slices.Contains(v.ElementsOf(ref), el) {
			out = append(out, ref)
		}
	}
	return out
}

// failedRisksOf returns the refs with a failed edge to el, sorted.
func failedRisksOf(v View, el ElementID) []object.Ref {
	var out []object.Ref
	for _, ref := range v.Risks() {
		if edgeFailed(v, el, ref) {
			out = append(out, ref)
		}
	}
	return out
}

// hitRatio is |Oi|/|Gi| for ref: the share of its dependents whose edge
// to it failed, 0 for an unknown ref or one with no dependents.
func hitRatio(v View, ref object.Ref) float64 {
	deps := len(v.ElementsOf(ref))
	if deps == 0 {
		return 0
	}
	return float64(len(v.FailedElementsOf(ref))) / float64(deps)
}

// coverageRatio is |Oi|/|F| for ref: the share of all observations whose
// edge to it failed, 0 when nothing failed.
func coverageRatio(v View, ref object.Ref) float64 {
	sig := len(v.FailureSignature())
	if sig == 0 {
		return 0
	}
	return float64(len(v.FailedElementsOf(ref))) / float64(sig)
}
