// A run's view of a risk model.
//
// The model lays its topology out as the engine reads it: risks numbered
// in ref order, and compressed rows both ways, each ascending —
//
//   - risk → dependent elements (risk.Model.Dependents), so a run on a
//     range of the elements (one switch's, risk.NewSwitchOverlay) finds a
//     risk's dependents in it by binary search
//   - element → risks (risk.Model.RisksOf)
//
// A run reads those rows as they are and composes them with its own
// delta: the view's failure marks, enumerated by ForEachMark, and an
// overlay's created edges and risks, numbered after the model's as the
// overlay numbers them.

package localize

import (
	"fmt"
	"slices"

	"scout/internal/object"
	"scout/internal/risk"
)

// runView is the mutable per-call state: the model, the element range
// [lo, hi) the run sees (elements outside it are neither alive nor
// pending), the run's delta in the model's element IDs — the view's
// failure marks and an overlay's created edges and risks — the
// alive/pending masks, and the incrementally-maintained per-risk alive
// counters.
type runView struct {
	m      *risk.Model
	nAll   int
	lo, hi risk.ElementID

	// Risk IDs ≥ m.NumRisks() address extraRefs, an overlay's created
	// risks.
	extraRefs []object.Ref
	extraDeps map[risk.RiskID][]risk.ElementID // risk → overlay-created dependent elements
	elCreated map[risk.ElementID][]risk.RiskID // element → risks via overlay-created edges
	marks     map[risk.RiskID][]risk.ElementID // risk → marked elements, ascending
	elMarked  map[risk.ElementID][]risk.RiskID // element → marked risks

	alive        bitset
	pending      bitset
	pendingCount int

	// aliveDeps[i] = |Gi ∩ alive|, aliveFailed[i] = |Oi ∩ alive|,
	// maintained on prune. Because every alive element with a failed edge
	// is still pending, aliveFailed is also |Oi ∩ pending| — the coverage
	// Scout's hit-ratio-1 stage maximizes.
	aliveDeps   []int
	aliveFailed []int

	// failedRisks: IDs with ≥1 failed edge, sorted by ref.
	failedRisks []risk.RiskID
}

func (rv *runView) ref(i risk.RiskID) object.Ref {
	if refs := rv.m.Risks(); int(i) < len(refs) {
		return refs[i]
	}
	return rv.extraRefs[int(i)-rv.m.NumRisks()]
}

func (rv *runView) refCmp(a, b risk.RiskID) int { return rv.ref(a).Compare(rv.ref(b)) }

// depsIn returns the model's dependents of risk i in the run's range.
func (rv *runView) depsIn(i risk.RiskID) []risk.ElementID {
	row := rv.m.Dependents(i)
	a, _ := slices.BinarySearch(row, rv.lo)
	b, _ := slices.BinarySearch(row[a:], rv.hi)
	return row[a : a+b]
}

// forEachDep invokes fn for every dependent element of risk i in range.
func (rv *runView) forEachDep(i risk.RiskID, fn func(el risk.ElementID)) {
	if int(i) < rv.m.NumRisks() {
		for _, el := range rv.depsIn(i) {
			fn(el)
		}
	}
	for _, el := range rv.extraDeps[i] {
		fn(el)
	}
}

// coverage returns |Oi ∩ pending| for risk i.
func (rv *runView) coverage(i risk.RiskID) int {
	cov := 0
	for _, el := range rv.marks[i] {
		if rv.pending.test(el) {
			cov++
		}
	}
	return cov
}

// newRunView composes v's model with v's delta, moving an overlay's
// elements into its base's numbering, and initializes the masks and
// counters over the view's range. v must be a *risk.Model or a
// *risk.Overlay, the tree's two View implementations; anything else is a
// programming error.
func newRunView(v risk.View) *runView {
	rv := &runView{}
	switch v := v.(type) {
	case *risk.Model:
		rv.m, rv.hi = v, risk.ElementID(v.NumElements())
	case *risk.Overlay:
		rv.m, rv.extraRefs = v.Base(), v.ExtraRiskRefs()
		rv.lo, rv.hi = v.Range()
		v.ForEachOverlayEdge(func(el risk.ElementID, ref object.Ref) {
			i, _ := v.RiskByRef(ref)
			if rv.extraDeps == nil {
				rv.extraDeps = make(map[risk.RiskID][]risk.ElementID)
				rv.elCreated = make(map[risk.ElementID][]risk.RiskID)
			}
			rv.extraDeps[i] = append(rv.extraDeps[i], el+rv.lo)
			rv.elCreated[el+rv.lo] = append(rv.elCreated[el+rv.lo], i)
		})
	default:
		panic(fmt.Sprintf("localize: cannot localize on view type %T", v))
	}
	nElements := rv.m.NumElements()
	rv.nAll = v.NumRisks()
	rv.alive = newBitset(nElements)
	rv.alive.setRange(rv.lo, rv.hi)
	rv.pending = newBitset(nElements)
	rv.marks, rv.elMarked = make(map[risk.RiskID][]risk.ElementID), make(map[risk.ElementID][]risk.RiskID)
	v.ForEachMark(func(el risk.ElementID, ref object.Ref) {
		i, _ := v.RiskByRef(ref)
		el += rv.lo
		rv.marks[i] = append(rv.marks[i], el)
		rv.elMarked[el] = append(rv.elMarked[el], i)
		rv.pending.set(el)
	})
	rv.pendingCount = len(rv.elMarked)

	rv.aliveDeps = make([]int, rv.nAll)
	rv.aliveFailed = make([]int, rv.nAll)
	for i := range rv.m.NumRisks() {
		rv.aliveDeps[i] = len(rv.depsIn(risk.RiskID(i)))
	}
	for i, els := range rv.extraDeps {
		rv.aliveDeps[i] += len(els)
	}
	rv.failedRisks = make([]risk.RiskID, 0, len(rv.marks))
	for i, els := range rv.marks {
		rv.aliveFailed[i] = len(els)
		rv.failedRisks = append(rv.failedRisks, i)
	}
	slices.SortFunc(rv.failedRisks, rv.refCmp)
	return rv
}

// prune removes element el from the working model, decrementing the
// alive counters of every risk it depends on. Returns false if el was
// already pruned.
func (rv *runView) prune(el risk.ElementID) bool {
	if !rv.alive.test(el) {
		return false
	}
	rv.alive.clear(el)
	if rv.pending.test(el) {
		rv.pending.clear(el)
		rv.pendingCount--
	}
	for _, r := range rv.m.RisksOf(el) {
		rv.aliveDeps[r]--
	}
	for _, r := range rv.elCreated[el] {
		rv.aliveDeps[r]--
	}
	for _, r := range rv.elMarked[el] {
		rv.aliveFailed[r]--
	}
	return true
}

// failedRefsOf returns the sorted refs of risks with a failed edge to el.
func (rv *runView) failedRefsOf(el risk.ElementID) []object.Ref {
	out := make([]object.Ref, 0, len(rv.elMarked[el]))
	for _, r := range rv.elMarked[el] {
		out = append(out, rv.ref(r))
	}
	object.SortRefs(out)
	return out
}
