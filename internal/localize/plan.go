// Compiled localization plans.
//
// Rebuilding map-of-maps adjacency from the model on every localization
// call is O(edges) of map churn per invocation, paid again for every warm
// run even though the model's topology never changes. A plan compiles that
// topology — risks and edges, never failure marks — once into dense CSR
// arrays indexed by a ref-sorted risk ordering:
//
//   - risk → dependent elements (deps/depOff), each row ascending, so a
//     run on a range of the elements (one switch's, risk.NewSwitchOverlay)
//     finds a risk's dependents in it by binary search
//   - element → risks (adj/adjOff), sorted by plan index
//
// A model never changes once built, so its plan is compiled once and
// cached on it (the way the frozen BDD base is cached on its deployment's
// fingerprint): repeated runs, and every overlay stacked on the model,
// reuse it without recompiling. Every run composes the plan with a per-run
// delta: the view's failure marks, enumerated by ForEachMark, and an
// overlay's created edges and risks.

package localize

import (
	"fmt"
	"slices"

	"scout/internal/object"
	"scout/internal/risk"
)

// plan is the immutable compiled topology of a *risk.Model.
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
	// CSR: element → risks (plan indices, ascending).
	adjOff []int32
	adj    []int32
}

// depsIn returns risk i's dependent elements in [lo, hi).
func (p *plan) depsIn(i, lo, hi int32) []int32 {
	row := p.deps[p.depOff[i]:p.depOff[i+1]]
	a, _ := slices.BinarySearch(row, lo)
	b, _ := slices.BinarySearch(row[a:], hi)
	return row[a : a+b]
}

// compilePlan builds a plan from the model's topology through its public
// read surface. Called once per model; every subsequent run reuses the
// cached result.
func compilePlan(m *risk.Model) *plan {
	refs := m.Risks() // sorted by Ref.Less
	nR, nE := len(refs), m.NumElements()
	p := &plan{
		nElements: nE,
		nRisks:    nR,
		refs:      refs,
		idxByRef:  make(map[object.Ref]int32, nR),
		depOff:    make([]int32, nR+1),
		adjOff:    make([]int32, nE+1),
	}

	// First pass: each risk's dependents, ascending (an edge a folded
	// overlay created comes last), and adjacency counts per element.
	elems := make([][]risk.ElementID, nR)
	for i, ref := range refs {
		p.idxByRef[ref] = int32(i)
		elems[i] = m.ElementsOf(ref)
		slices.Sort(elems[i])
		for _, el := range elems[i] {
			p.adjOff[el+1]++
		}
		p.depOff[i+1] = p.depOff[i] + int32(len(elems[i]))
	}
	for el := 0; el < nE; el++ {
		p.adjOff[el+1] += p.adjOff[el]
	}

	// Second pass: fill the CSR bodies. Filling element adjacency in
	// ascending risk-index order leaves each element's row sorted by plan
	// index, i.e. by ref.
	p.deps = make([]int32, 0, p.depOff[nR])
	p.adj = make([]int32, p.adjOff[nE])
	adjNext := slices.Clone(p.adjOff[:nE])
	for i := range refs {
		for _, el := range elems[i] {
			p.adj[adjNext[el]] = int32(i)
			adjNext[el]++
			p.deps = append(p.deps, int32(el))
		}
	}
	return p
}

// planFor resolves the compiled plan for a view: a *Model's own, an
// *Overlay's base's; either is compiled, or reused from the model's cache.
// Those are the tree's only two View implementations; handing the engine
// anything else is a programming error.
func planFor(v risk.View, st *EngineStats) *plan {
	switch m := v.(type) {
	case *risk.Model:
		return modelPlan(m, st)
	case *risk.Overlay:
		return modelPlan(m.Base(), st)
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
// pending), the run's delta in base element IDs — the view's failure marks
// and an overlay's created edges and risks — the alive/pending masks, and
// the incrementally-maintained per-risk alive counters.
type runView struct {
	p      *plan
	nAll   int32
	lo, hi int32

	// Risk indices ≥ p.nRisks address extraRefs, an overlay's created
	// risks.
	extraRefs []object.Ref
	extraDeps map[int32][]int32 // risk → overlay-created dependent elements
	elCreated map[int32][]int32 // element → risks via overlay-created edges
	marks     map[int32][]int32 // risk → marked elements, ascending
	elMarked  map[int32][]int32 // element → marked risks

	alive        bitset
	pending      bitset
	pendingCount int

	// aliveDeps[i] = |Gi ∩ alive|, aliveFailed[i] = |Oi ∩ alive|,
	// maintained on prune. Because every alive element with a failed edge
	// is still pending, aliveFailed is also |Oi ∩ pending| — the coverage
	// Scout's hit-ratio-1 stage maximizes.
	aliveDeps   []int32
	aliveFailed []int32

	// failedRisks: indices with ≥1 failed edge, sorted by ref.
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

// coverage returns |Oi ∩ pending| for risk i.
func (rv *runView) coverage(i int32) int32 {
	cov := int32(0)
	for _, el := range rv.marks[i] {
		if rv.pending.test(el) {
			cov++
		}
	}
	return cov
}

// newRunView composes the plan with v's delta, moving an overlay's
// elements into its base's numbering, and initializes the masks and
// counters over the view's range.
func newRunView(p *plan, v risk.View) *runView {
	rv := &runView{p: p, nAll: int32(p.nRisks), hi: int32(p.nElements)}
	var extraIdx map[object.Ref]int32
	lookup := func(ref object.Ref) int32 {
		if i, ok := p.idxByRef[ref]; ok {
			return i
		}
		return extraIdx[ref]
	}
	if o, ok := v.(*risk.Overlay); ok {
		lo, hi := o.Range()
		rv.lo, rv.hi = int32(lo), int32(hi)
		rv.extraRefs = o.ExtraRiskRefs()
		rv.nAll += int32(len(rv.extraRefs))
		extraIdx = make(map[object.Ref]int32, len(rv.extraRefs))
		for i, ref := range rv.extraRefs {
			extraIdx[ref] = int32(p.nRisks + i)
		}
		o.ForEachOverlayEdge(func(el risk.ElementID, ref object.Ref) {
			i, e := lookup(ref), int32(el+lo)
			if rv.extraDeps == nil {
				rv.extraDeps = make(map[int32][]int32)
				rv.elCreated = make(map[int32][]int32)
			}
			rv.extraDeps[i] = append(rv.extraDeps[i], e)
			rv.elCreated[e] = append(rv.elCreated[e], i)
		})
	}
	rv.alive = newBitset(p.nElements)
	rv.alive.setRange(rv.lo, rv.hi)
	rv.pending = newBitset(p.nElements)
	rv.marks, rv.elMarked = make(map[int32][]int32), make(map[int32][]int32)
	v.ForEachMark(func(el risk.ElementID, ref object.Ref) {
		i, e := lookup(ref), int32(el)+rv.lo
		rv.marks[i] = append(rv.marks[i], e)
		rv.elMarked[e] = append(rv.elMarked[e], i)
		rv.pending.set(e)
	})
	rv.pendingCount = len(rv.elMarked)

	rv.aliveDeps = make([]int32, rv.nAll)
	rv.aliveFailed = make([]int32, rv.nAll)
	for i := int32(0); int(i) < p.nRisks; i++ {
		rv.aliveDeps[i] = int32(len(p.depsIn(i, rv.lo, rv.hi)))
	}
	for i, els := range rv.extraDeps {
		rv.aliveDeps[i] += int32(len(els))
	}
	rv.failedRisks = make([]int32, 0, len(rv.marks))
	for i, els := range rv.marks {
		rv.aliveFailed[i] = int32(len(els))
		rv.failedRisks = append(rv.failedRisks, i)
	}
	slices.SortFunc(rv.failedRisks, rv.refCmp)
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
	for _, r := range p.adj[p.adjOff[el]:p.adjOff[el+1]] {
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
func (rv *runView) failedRefsOf(el int32) []object.Ref {
	out := make([]object.Ref, 0, len(rv.elMarked[el]))
	for _, r := range rv.elMarked[el] {
		out = append(out, rv.ref(r))
	}
	object.SortRefs(out)
	return out
}
