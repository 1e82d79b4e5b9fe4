// A run's view of a risk model.
//
// The model lays its topology out as the engine reads it: risks numbered
// in ref order, and compressed rows both ways, each ascending —
//
//   - risk → dependent elements (risk.Model.Dependents), so a run on a
//     range of the elements (one switch's, risk.SwitchMarks.View) finds a
//     risk's dependents in it by binary search
//   - element → risks (risk.Model.RisksOf)
//
// A run reads those rows as they are and composes them with its own
// delta, the view's sorted slices: its failed edges (Marks), which are
// also its per-element mark rows, and an overlay's created edges and
// risks, numbered after the model's as the overlay numbers them.

package localize

import (
	"cmp"
	"fmt"
	"slices"

	"scout/internal/object"
	"scout/internal/risk"
)

// runView is the mutable per-call state: the model, the element range
// [lo, hi) the run sees (elements outside it are neither alive nor
// pending), the run's delta in the model's element IDs — the view's
// failed edges and an overlay's created edges and risks — the
// alive/pending masks, and the incrementally-maintained per-risk alive
// counters.
type runView struct {
	m      *risk.Model
	nAll   int
	lo, hi risk.ElementID

	// Risk IDs ≥ m.NumRisks() address extraRefs, an overlay's created
	// risks.
	extraRefs []object.Ref
	// marks are the failed edges and created the marks on edges the model
	// lacks, each ascending by element, then risk.
	marks, created []risk.Mark

	alive        bitset
	pending      bitset
	pendingCount int

	// aliveDeps[i] = |Gi ∩ alive| for failedRisks, the only risks read
	// (prune drives the others negative), and aliveFailed[i] = |Oi ∩ alive|,
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

// depsIn returns risk i's model dependents in range; created risks have none.
func (rv *runView) depsIn(i risk.RiskID) []risk.ElementID {
	if int(i) >= rv.m.NumRisks() {
		return nil
	}
	row := rv.m.Dependents(i)
	a, _ := slices.BinarySearch(row, rv.lo)
	b, _ := slices.BinarySearch(row[a:], rv.hi)
	return row[a : a+b]
}

// forEachDep invokes fn for every dependent element of risk i in range.
func (rv *runView) forEachDep(i risk.RiskID, fn func(el risk.ElementID)) {
	for _, el := range rv.depsIn(i) {
		fn(el)
	}
	for _, mk := range rv.created {
		if mk.Risk == i {
			fn(mk.El)
		}
	}
}

// rowOf returns el's marks in marks, which ascend by element.
func rowOf(marks []risk.Mark, el risk.ElementID) []risk.Mark {
	byEl := func(mk risk.Mark, el risk.ElementID) int { return cmp.Compare(mk.El, el) }
	i, _ := slices.BinarySearchFunc(marks, el, byEl)
	j, _ := slices.BinarySearchFunc(marks, el+1, byEl)
	return marks[i:j]
}

// newRunView composes v's model with v's delta and initializes the masks
// and counters over the view's range. v must be a *risk.Model or a
// *risk.Overlay, the tree's two View implementations; anything else is a
// programming error.
func newRunView(v risk.View) *runView {
	rv := &runView{}
	switch v := v.(type) {
	case *risk.Model:
		rv.m, rv.hi, rv.marks = v, risk.ElementID(v.NumElements()), v.Marks()
	case *risk.Overlay:
		rv.m, rv.extraRefs, rv.marks, rv.created = v.Base(), v.ExtraRiskRefs(), v.Marks(), v.CreatedEdges()
		rv.lo, rv.hi = v.Range()
	default:
		panic(fmt.Sprintf("localize: cannot localize on view type %T", v))
	}
	nElements := rv.m.NumElements()
	rv.nAll = v.NumRisks()
	rv.alive = newBitset(nElements)
	rv.alive.setRange(rv.lo, rv.hi)
	rv.pending = newBitset(nElements)

	rv.aliveDeps = make([]int, rv.nAll)
	rv.aliveFailed = make([]int, rv.nAll)
	for _, mk := range rv.created {
		rv.aliveDeps[mk.Risk]++
	}
	for _, mk := range rv.marks {
		rv.aliveFailed[mk.Risk]++
		if !rv.pending.test(mk.El) {
			rv.pending.set(mk.El)
			rv.pendingCount++
		}
	}
	n := 0
	for _, k := range rv.aliveFailed {
		n += min(k, 1)
	}
	rv.failedRisks = make([]risk.RiskID, 0, n)
	for i, k := range rv.aliveFailed {
		if k > 0 {
			rv.failedRisks = append(rv.failedRisks, risk.RiskID(i))
			rv.aliveDeps[i] += len(rv.depsIn(risk.RiskID(i)))
		}
	}
	if len(rv.extraRefs) > 0 { // created risks interleave with the model's
		slices.SortFunc(rv.failedRisks, rv.refCmp)
	}
	return rv
}

// prune removes element el from the working model, decrementing the
// alive counters of every risk it depends on. Returns false if el was
// already pruned. Only SCOUT's first stage prunes, and it clears no
// pending element but by pruning it, so an element has marks, and
// created edges, only if it is pending.
func (rv *runView) prune(el risk.ElementID) bool {
	if !rv.alive.test(el) {
		return false
	}
	rv.alive.clear(el)
	for _, r := range rv.m.RisksOf(el) {
		rv.aliveDeps[r]--
	}
	if rv.pending.test(el) {
		rv.pending.clear(el)
		rv.pendingCount--
		for _, mk := range rowOf(rv.marks, el) {
			rv.aliveFailed[mk.Risk]--
		}
		for _, mk := range rowOf(rv.created, el) {
			rv.aliveDeps[mk.Risk]--
		}
	}
	return true
}

// failedRefsOf returns the sorted refs of risks with a failed edge to el.
func (rv *runView) failedRefsOf(el risk.ElementID) []object.Ref {
	row := rowOf(rv.marks, el)
	out := make([]object.Ref, len(row))
	for i, mk := range row {
		out[i] = rv.ref(mk.Risk)
	}
	object.SortRefs(out)
	return out
}
