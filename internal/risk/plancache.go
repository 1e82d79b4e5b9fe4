// Compiled-plan cache hook and failure delta export.
//
// The localization engine compiles a model's topology — its risks and
// edges, never its failure marks — into a dense CSR/bitset plan
// (internal/localize). The plan is valid as long as no edge or risk is
// added, so Model carries a topology revision and a single-slot atomic
// cache: StorePlan records an artifact against the current revision,
// CachedPlan returns it only while the revision still matches. Marking an
// edge the model has leaves the plan valid. The slot holds `any` so risk
// does not depend on localize — the same inversion the frozen BDD base
// uses (the session owns the cache, the producer package defines the
// artifact).
//
// Every run composes the plan with a per-run delta: the failure marks
// ForEachMark enumerates on a model or an overlay, and, on an overlay, the
// risks and edges its marks created, which the exports below enumerate.

package risk

import (
	"cmp"
	"slices"
	"sync/atomic"

	"scout/internal/object"
)

// planEntry pairs a cached artifact with the model revision it was
// compiled from.
type planEntry struct {
	rev  uint64
	plan any
}

// CachedPlan returns the artifact stored by StorePlan, or nil if none was
// stored or an edge or risk has been added since. Safe for concurrent
// readers of an otherwise-immutable model.
func (m *Model) CachedPlan() any {
	e := m.planCache.Load()
	if e == nil || e.rev != m.rev {
		return nil
	}
	return e.plan
}

// StorePlan caches an artifact against the model's current revision,
// replacing any previous one.
func (m *Model) StorePlan(p any) {
	m.planCache.Store(&planEntry{rev: m.rev, plan: p})
}

// planCacheSlot aliases the atomic slot type so model.go's struct stays
// readable.
type planCacheSlot = atomic.Pointer[planEntry]

// ExtraRiskRefs returns the refs of risks created by overlay marks, in
// creation order (their RiskIDs continue the base's dense numbering).
func (o *Overlay) ExtraRiskRefs() []object.Ref {
	return append([]object.Ref(nil), o.extraRisks...)
}

// ForEachOverlayEdge invokes fn for every overlay-created edge (an edge a
// mark named that the base lacked), in ascending element order. Every
// overlay-created edge also carries a failure mark, by construction of
// MarkFailed.
func (o *Overlay) ForEachOverlayEdge(fn func(el ElementID, ref object.Ref)) {
	for _, el := range sortedKeys(o.extraDeps) {
		for _, r := range o.extraDeps[el] {
			fn(el, o.refOf(r))
		}
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
