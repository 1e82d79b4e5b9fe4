// Compiled-plan cache hook and failure delta export.
//
// The localization engine compiles a model's topology — its risks and
// edges — into a dense CSR/bitset plan (internal/localize). A model never
// changes once built, so the plan stays valid for the model's life: Model
// carries a store-once atomic slot, and the first plan stored is the one
// every later run reads. The slot holds `any` so risk does not depend on
// localize — the same inversion the frozen BDD base uses (the session owns
// the cache, the producer package defines the artifact).
//
// Every run composes the plan with a per-run delta: the failure marks
// ForEachMark enumerates, and, on an overlay, the risks and edges its marks
// created, which the exports below enumerate.

package risk

import (
	"cmp"
	"slices"

	"scout/internal/object"
)

// CachedPlan returns the artifact StorePlan stored, or nil before one is.
// Safe for concurrent use.
func (m *Model) CachedPlan() any {
	if p := m.plan.Load(); p != nil {
		return *p
	}
	return nil
}

// StorePlan stores p unless the model holds an artifact already: runs
// that compile at once all store, and the first store wins.
func (m *Model) StorePlan(p any) { m.plan.CompareAndSwap(nil, &p) }

// ExtraRiskRefs returns the refs of risks created by overlay marks, in
// creation order (their RiskIDs continue the base's dense numbering).
func (o *Overlay) ExtraRiskRefs() []object.Ref {
	return append([]object.Ref(nil), o.extraRisks...)
}

// ForEachOverlayEdge invokes fn for every overlay-created edge (an edge a
// mark named that the base lacked), in ascending element order, then mark
// order. Every overlay-created edge also carries a failure mark, by
// construction of MarkFailed.
func (o *Overlay) ForEachOverlayEdge(fn func(el ElementID, ref object.Ref)) {
	created := slices.Clone(o.created)
	slices.SortStableFunc(created, func(a, b createdEdge) int { return cmp.Compare(a.el, b.el) })
	for _, e := range created {
		fn(e.el, o.refOf(e.r))
	}
}

// ForEachMark invokes fn for every failure mark the overlay added (marks on
// base edges and on overlay-created edges alike), in ascending element
// order, then ascending risk ID. The base is pristine, so these are every
// failed edge the overlay has.
func (o *Overlay) ForEachMark(fn func(el ElementID, ref object.Ref)) {
	for _, el := range sortedKeys(o.failed) {
		for _, r := range sortedKeys(o.failed[el]) {
			fn(el, o.refOf(r))
		}
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
