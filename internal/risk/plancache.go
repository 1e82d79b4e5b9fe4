// Compiled-plan cache hook and overlay delta export.
//
// The localization engine compiles a pristine *Model into a dense
// CSR/bitset plan (internal/localize). The plan is valid exactly as long
// as the model is not mutated, so Model carries a mutation revision and a
// single-slot atomic cache: StorePlan records an artifact against the
// current revision, CachedPlan returns it only while the revision still
// matches. The slot holds `any` so risk does not depend on localize — the
// same inversion the frozen BDD base uses (the session owns the cache,
// the producer package defines the artifact).
//
// Overlays never recompile: the delta exports below enumerate exactly
// what an overlay adds on top of its base (created risks, created edges,
// failure marks), which is all the engine needs to compose a per-run
// delta in O(marks).

package risk

import (
	"sort"
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
// stored or the model has been mutated since. Safe for concurrent readers
// of an otherwise-immutable model.
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
	if len(o.extraRisks) == 0 {
		return nil
	}
	out := make([]object.Ref, len(o.extraRisks))
	for i := range o.extraRisks {
		out[i] = o.extraRisks[i].ref
	}
	return out
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

// ForEachOverlayMark invokes fn for every failure mark the overlay added
// (marks on base edges and on overlay-created edges alike; base-failed
// edges are never re-marked), in ascending element order.
func (o *Overlay) ForEachOverlayMark(fn func(el ElementID, ref object.Ref)) {
	for _, el := range sortedKeys(o.failed) {
		marks := o.failed[el]
		ids := make([]RiskID, 0, len(marks))
		for r := range marks {
			ids = append(ids, r)
		}
		sortRiskIDs(ids)
		for _, r := range ids {
			fn(el, o.refOf(r))
		}
	}
}

func sortRiskIDs(ids []RiskID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortedKeys[V any](m map[ElementID]V) []ElementID {
	out := make([]ElementID, 0, len(m))
	for el := range m {
		out = append(out, el)
	}
	sortElementIDs(out)
	return out
}
