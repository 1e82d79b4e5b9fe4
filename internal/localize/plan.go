// Compiled localization plans.
//
// Rebuilding map-of-maps adjacency from the model on every localization
// call is O(edges) of map churn per invocation, paid again for every warm
// run even though the pristine model never changes. A plan compiles that
// adjacency once into dense CSR arrays indexed by a ref-sorted risk
// ordering:
//
//   - risk → dependent elements (deps/depOff), each row ascending, so a
//     run on a range of the elements (one switch's, risk.NewSwitchOverlay)
//     finds a risk's dependents in it by binary search
//   - risk → base failed elements (failEls/failOff)
//   - element → risks with a per-edge failed flag (adj/adjOff/adjFailed),
//     sorted by plan index so walking an element's failed risks yields
//     refs in sorted order with no allocation
//
// The plan is cached on the model against its mutation revision (the way
// the frozen BDD base is cached against its deployment fingerprint), so
// repeated runs — and every overlay stacked on the model — reuse it
// without recompiling topology. Overlay runs compose the plan with a
// per-run delta enumerated from the overlay's failure marks in O(marks).

package localize

import (
	"fmt"
	"slices"

	"scout/internal/object"
	"scout/internal/risk"
)

// plan is the immutable compiled form of a pristine *risk.Model.
type plan struct {
	nElements int
	nRisks    int

	// refs maps plan risk index → object ref, ascending in Ref.Less
	// order; idxByRef is the inverse.
	refs     []object.Ref
	idxByRef map[object.Ref]int32

	// CSR: risk → dependent elements.
	depOff []int32
	deps   []int32
	// CSR: risk → elements whose edge to the risk is base-failed.
	failOff []int32
	failEls []int32
	// CSR: element → risks (plan indices, ascending) with per-edge
	// base-failed flags.
	adjOff    []int32
	adj       []int32
	adjFailed []bool

	// sig is the base failure signature (ascending element IDs);
	// failedRisks are the plan indices with ≥1 base failed edge
	// (ascending index = ascending ref).
	sig         []int32
	failedRisks []int32
}

func (p *plan) failCnt(i int32) int32 { return p.failOff[i+1] - p.failOff[i] }

// depsIn returns risk i's dependent elements in [lo, hi).
func (p *plan) depsIn(i, lo, hi int32) []int32 {
	row := p.deps[p.depOff[i]:p.depOff[i+1]]
	a, _ := slices.BinarySearch(row, lo)
	b, _ := slices.BinarySearch(row[a:], hi)
	return row[a : a+b]
}

// compilePlan builds a plan from the model through its public read
// surface. Called once per model revision; every subsequent run reuses
// the cached result.
func compilePlan(m *risk.Model) *plan {
	refs := m.Risks() // sorted by Ref.Less
	nR, nE := len(refs), m.NumElements()
	p := &plan{
		nElements: nE,
		nRisks:    nR,
		refs:      refs,
		idxByRef:  make(map[object.Ref]int32, nR),
		depOff:    make([]int32, nR+1),
		failOff:   make([]int32, nR+1),
		adjOff:    make([]int32, nE+1),
	}

	// First pass: each risk's dependents and failed dependents, ascending
	// (an edge added after the build appends), and adjacency counts per
	// element.
	elems, failed := make([][]risk.ElementID, nR), make([][]risk.ElementID, nR)
	for i, ref := range refs {
		p.idxByRef[ref] = int32(i)
		elems[i], failed[i] = m.ElementsOf(ref), m.FailedElementsOf(ref)
		slices.Sort(elems[i])
		slices.Sort(failed[i])
		for _, el := range elems[i] {
			p.adjOff[el+1]++
		}
		p.depOff[i+1] = p.depOff[i] + int32(len(elems[i]))
		p.failOff[i+1] = p.failOff[i] + int32(len(failed[i]))
		if len(failed[i]) > 0 {
			p.failedRisks = append(p.failedRisks, int32(i))
		}
	}
	for el := 0; el < nE; el++ {
		p.adjOff[el+1] += p.adjOff[el]
	}

	// Second pass: fill the CSR bodies. Filling element adjacency in
	// ascending risk-index order leaves each element's row sorted by plan
	// index, i.e. by ref.
	p.deps = make([]int32, 0, p.depOff[nR])
	p.failEls = make([]int32, 0, p.failOff[nR])
	p.adj = make([]int32, p.adjOff[nE])
	p.adjFailed = make([]bool, p.adjOff[nE])
	adjNext := slices.Clone(p.adjOff[:nE])
	for i := range refs {
		fe := failed[i]
		for _, el := range elems[i] {
			k := adjNext[el]
			adjNext[el]++
			p.adj[k] = int32(i)
			p.deps = append(p.deps, int32(el))
			if len(fe) > 0 && fe[0] == el {
				p.adjFailed[k] = true
				p.failEls = append(p.failEls, int32(el))
				fe = fe[1:]
			}
		}
	}

	for _, el := range m.FailureSignature() {
		p.sig = append(p.sig, int32(el))
	}
	return p
}

// planFor resolves the compiled plan for a view: a *Model compiles (or
// reuses) its own plan; an *Overlay reuses its base's plan plus a per-run
// delta. Those are the tree's only two View implementations; handing the
// engine anything else is a programming error.
func planFor(v risk.View, st *EngineStats) (*plan, *risk.Overlay) {
	switch m := v.(type) {
	case *risk.Model:
		return modelPlan(m, st), nil
	case *risk.Overlay:
		return modelPlan(m.Base(), st), m
	}
	panic(fmt.Sprintf("localize: no compiled plan for view type %T", v))
}

// modelPlan returns m's cached plan, or compiles and caches one, and
// counts which in st.
func modelPlan(m *risk.Model, st *EngineStats) *plan {
	if p, ok := m.CachedPlan().(*plan); ok {
		st.PlanReuses++
		return p
	}
	p := compilePlan(m)
	m.StorePlan(p)
	st.PlanCompiles++
	return p
}

// Prepare compiles m's plan unless m holds one, so that localizations
// fanned out over overlays of m, which reuse it, never race to compile it.
// It returns the call's counters: one compile, or nothing.
func Prepare(m *risk.Model) EngineStats {
	var st EngineStats
	if m.CachedPlan() == nil {
		modelPlan(m, &st)
		addTotals(st)
	}
	return st
}

// runView is the mutable per-call state: the shared plan, the element
// range [lo, hi) the run sees (elements outside it are neither alive nor
// pending), the overlay delta in base element IDs (nil maps for
// pure-model runs), the alive/pending masks, and the
// incrementally-maintained per-risk alive counters.
type runView struct {
	p      *plan
	nAll   int32
	lo, hi int32

	// Overlay delta. Risk indices ≥ p.nRisks address extraRefs.
	extraRefs []object.Ref
	extraDeps map[int32][]int32 // risk → overlay-created dependent elements
	marks     map[int32][]int32 // risk → overlay-marked elements
	elCreated map[int32][]int32 // element → risks via overlay-created edges
	elMarked  map[int32][]int32 // element → risks overlay-marked on base edges

	alive        bitset
	pending      bitset
	pendingCount int

	// aliveDeps[i] = |Gi ∩ alive|, aliveFailed[i] = |Oi ∩ alive|,
	// maintained on prune. Because every alive element with a failed edge
	// is still pending, aliveFailed is also |Oi ∩ pending| — the coverage
	// Scout's hit-ratio-1 stage maximizes.
	aliveDeps   []int32
	aliveFailed []int32

	// failedRisks: indices with ≥1 failed edge (the model's, or the
	// overlay's), sorted by ref.
	failedRisks []int32
}

func (rv *runView) ref(i int32) object.Ref {
	if int(i) < rv.p.nRisks {
		return rv.p.refs[i]
	}
	return rv.extraRefs[int(i)-rv.p.nRisks]
}

func (rv *runView) refCmp(a, b int32) int { return rv.ref(a).Compare(rv.ref(b)) }

// forEachDep invokes fn for every dependent element of risk i in range.
func (rv *runView) forEachDep(i int32, fn func(el int32)) {
	if int(i) < rv.p.nRisks {
		for _, el := range rv.p.depsIn(i, rv.lo, rv.hi) {
			fn(el)
		}
	}
	for _, el := range rv.extraDeps[i] {
		fn(el)
	}
}

// forEachFailed invokes fn for every element whose edge to risk i is
// failed: the plan's marks for a *Model, the overlay's over its pristine
// base.
func (rv *runView) forEachFailed(i int32, fn func(el int32)) {
	if int(i) < rv.p.nRisks {
		for _, el := range rv.p.failEls[rv.p.failOff[i]:rv.p.failOff[i+1]] {
			fn(el)
		}
	}
	for _, el := range rv.marks[i] {
		fn(el)
	}
}

// coverage returns |Oi ∩ pending| for risk i.
func (rv *runView) coverage(i int32) int32 {
	cov := int32(0)
	rv.forEachFailed(i, func(el int32) {
		if rv.pending.test(el) {
			cov++
		}
	})
	return cov
}

// newRunView composes the plan with the overlay delta (o may be nil),
// moving its elements into the base's numbering, and initializes the masks
// and counters over the overlay's range.
func newRunView(p *plan, o *risk.Overlay) *runView {
	rv := &runView{p: p, nAll: int32(p.nRisks), hi: int32(p.nElements)}
	if o != nil {
		lo, hi := o.Range()
		rv.lo, rv.hi = int32(lo), int32(hi)
		rv.extraRefs = o.ExtraRiskRefs()
		rv.nAll += int32(len(rv.extraRefs))
		extraIdx := make(map[object.Ref]int32, len(rv.extraRefs))
		for i, ref := range rv.extraRefs {
			extraIdx[ref] = int32(p.nRisks + i)
		}
		lookup := func(ref object.Ref) int32 {
			if i, ok := p.idxByRef[ref]; ok {
				return i
			}
			return extraIdx[ref]
		}
		created := make(map[int64]struct{})
		o.ForEachOverlayEdge(func(el risk.ElementID, ref object.Ref) {
			i, el := lookup(ref), el+lo
			if rv.extraDeps == nil {
				rv.extraDeps = make(map[int32][]int32)
				rv.elCreated = make(map[int32][]int32)
			}
			rv.extraDeps[i] = append(rv.extraDeps[i], int32(el))
			rv.elCreated[int32(el)] = append(rv.elCreated[int32(el)], i)
			created[int64(el)<<32|int64(i)] = struct{}{}
		})
		o.ForEachOverlayMark(func(el risk.ElementID, ref object.Ref) {
			i, el := lookup(ref), el+lo
			if rv.marks == nil {
				rv.marks = make(map[int32][]int32)
				rv.elMarked = make(map[int32][]int32)
			}
			rv.marks[i] = append(rv.marks[i], int32(el))
			if _, isNew := created[int64(el)<<32|int64(i)]; !isNew {
				rv.elMarked[int32(el)] = append(rv.elMarked[int32(el)], i)
			}
		})
	}

	rv.alive = newBitset(p.nElements)
	rv.alive.setRange(rv.lo, rv.hi)
	rv.pending = newBitset(p.nElements)
	for _, el := range p.sig {
		rv.pending.set(el)
	}
	for i := range rv.marks {
		for _, el := range rv.marks[i] {
			rv.pending.set(el)
		}
	}
	rv.pendingCount = rv.pending.count()

	rv.aliveDeps = make([]int32, rv.nAll)
	rv.aliveFailed = make([]int32, rv.nAll)
	for i := int32(0); int(i) < p.nRisks; i++ {
		rv.aliveDeps[i] = int32(len(p.depsIn(i, rv.lo, rv.hi)))
		rv.aliveFailed[i] = p.failCnt(i)
	}
	for i, els := range rv.extraDeps {
		rv.aliveDeps[i] += int32(len(els))
	}
	for i, els := range rv.marks {
		rv.aliveFailed[i] += int32(len(els))
	}

	// An overlay's base is pristine, so its failed risks are its marks'.
	rv.failedRisks = p.failedRisks
	if o != nil {
		rv.failedRisks = make([]int32, 0, len(rv.marks))
		for i := range rv.marks {
			rv.failedRisks = append(rv.failedRisks, i)
		}
		slices.SortFunc(rv.failedRisks, rv.refCmp)
	}
	return rv
}

// prune removes element el from the working model, decrementing the
// alive counters of every risk it depends on. Returns false if el was
// already pruned.
func (rv *runView) prune(el int32) bool {
	if !rv.alive.test(el) {
		return false
	}
	rv.alive.clear(el)
	if rv.pending.test(el) {
		rv.pending.clear(el)
		rv.pendingCount--
	}
	p := rv.p
	for k := p.adjOff[el]; k < p.adjOff[el+1]; k++ {
		r := p.adj[k]
		rv.aliveDeps[r]--
		if p.adjFailed[k] {
			rv.aliveFailed[r]--
		}
	}
	for _, r := range rv.elCreated[el] {
		rv.aliveDeps[r]--
		rv.aliveFailed[r]-- // created edges are always marked
	}
	for _, r := range rv.elMarked[el] {
		rv.aliveFailed[r]--
	}
	return true
}

// failedRefsOf returns the sorted refs of risks with a failed edge to el.
func (rv *runView) failedRefsOf(el int32) []object.Ref {
	var out []object.Ref
	p := rv.p
	for k := p.adjOff[el]; k < p.adjOff[el+1]; k++ {
		if p.adjFailed[k] {
			out = append(out, p.refs[p.adj[k]])
		}
	}
	extra := len(rv.elCreated[el]) + len(rv.elMarked[el])
	if extra == 0 {
		return out // base rows are already ref-sorted
	}
	for _, r := range rv.elCreated[el] {
		out = append(out, rv.ref(r))
	}
	for _, r := range rv.elMarked[el] {
		out = append(out, rv.ref(r))
	}
	object.SortRefs(out)
	return out
}
