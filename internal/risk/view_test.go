package risk

import (
	"slices"

	"scout/internal/object"
)

// The quantities below are read by tests only, so they are derived from
// Model's methods here rather than implemented by the model.

// isObservation reports whether el has at least one failed edge.
func isObservation(m *Model, el ElementID) bool {
	return slices.Contains(m.FailureSignature(), el)
}

// edgeFailed reports whether the edge el↔ref exists and is marked fail.
func edgeFailed(m *Model, el ElementID, ref object.Ref) bool {
	return slices.Contains(m.FailedElementsOf(ref), el)
}

// risksOf returns the refs el depends on, sorted.
func risksOf(m *Model, el ElementID) []object.Ref {
	var out []object.Ref
	for _, ref := range m.Risks() {
		if slices.Contains(m.ElementsOf(ref), el) {
			out = append(out, ref)
		}
	}
	return out
}

// failedRisksOf returns the refs with a failed edge to el, sorted.
func failedRisksOf(m *Model, el ElementID) []object.Ref {
	var out []object.Ref
	for _, ref := range m.Risks() {
		if edgeFailed(m, el, ref) {
			out = append(out, ref)
		}
	}
	return out
}

// hitRatio is |Oi|/|Gi| for ref: the share of its dependents whose edge
// to it failed, 0 for an unknown ref or one with no dependents.
func hitRatio(m *Model, ref object.Ref) float64 {
	deps := len(m.ElementsOf(ref))
	if deps == 0 {
		return 0
	}
	return float64(len(m.FailedElementsOf(ref))) / float64(deps)
}

// coverageRatio is |Oi|/|F| for ref: the share of all observations whose
// edge to it failed, 0 when nothing failed.
func coverageRatio(m *Model, ref object.Ref) float64 {
	sig := len(m.FailureSignature())
	if sig == 0 {
		return 0
	}
	return float64(len(m.FailedElementsOf(ref))) / float64(sig)
}
