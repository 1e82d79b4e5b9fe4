// Compiled localization plans.
//
// Rebuilding map-of-maps adjacency from the model on every localization
// call is O(edges) of map churn per invocation, paid again for every warm
// run even though the pristine model never changes. A plan compiles that
// adjacency once into dense CSR arrays indexed by a ref-sorted risk
// ordering:
//
//   - risk → dependent elements (deps/depOff)
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
	"sort"

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

func (p *plan) deg(i int32) int32     { return p.depOff[i+1] - p.depOff[i] }
func (p *plan) failCnt(i int32) int32 { return p.failOff[i+1] - p.failOff[i] }

// compilePlan builds a plan from the model through its public read
// surface. Called once per model revision; every subsequent run reuses
// the cached result.
func compilePlan(m *risk.Model) *plan {
	refs := m.Risks() // sorted by Ref.Less
	nR := len(refs)
	nE := m.NumElements()
	p := &plan{
		nElements: nE,
		nRisks:    nR,
		refs:      refs,
		idxByRef:  make(map[object.Ref]int32, nR),
		depOff:    make([]int32, nR+1),
		failOff:   make([]int32, nR+1),
		adjOff:    make([]int32, nE+1),
	}
	for i, ref := range refs {
		p.idxByRef[ref] = int32(i)
	}

	// First pass: per-risk element lists and failed sets, plus adjacency
	// counts per element.
	elems := make([][]risk.ElementID, nR)
	failedOf := make([]map[risk.ElementID]struct{}, nR)
	for i, ref := range refs {
		elems[i] = m.ElementsOf(ref)
		fe := m.FailedElementsOf(ref)
		if len(fe) > 0 {
			set := make(map[risk.ElementID]struct{}, len(fe))
			for _, el := range fe {
				set[el] = struct{}{}
			}
			failedOf[i] = set
		}
		for _, el := range elems[i] {
			p.adjOff[el+1]++
		}
	}
	for i := 0; i < nR; i++ {
		p.depOff[i+1] = p.depOff[i] + int32(len(elems[i]))
		nf := 0
		if failedOf[i] != nil {
			nf = len(failedOf[i])
		}
		p.failOff[i+1] = p.failOff[i] + int32(nf)
		if nf > 0 {
			p.failedRisks = append(p.failedRisks, int32(i))
		}
	}
	for el := 0; el < nE; el++ {
		p.adjOff[el+1] += p.adjOff[el]
	}

	// Second pass: fill the CSR bodies. Filling element adjacency in
	// ascending risk-index order leaves each element's row sorted by plan
	// index, i.e. by ref.
	p.deps = make([]int32, p.depOff[nR])
	p.failEls = make([]int32, p.failOff[nR])
	p.adj = make([]int32, p.adjOff[nE])
	p.adjFailed = make([]bool, p.adjOff[nE])
	adjNext := make([]int32, nE)
	copy(adjNext, p.adjOff[:nE])
	for i := 0; i < nR; i++ {
		di := p.depOff[i]
		fi := p.failOff[i]
		for _, el := range elems[i] {
			p.deps[di] = int32(el)
			di++
			k := adjNext[el]
			adjNext[el] = k + 1
			p.adj[k] = int32(i)
			if failedOf[i] != nil {
				if _, f := failedOf[i][el]; f {
					p.adjFailed[k] = true
					p.failEls[fi] = int32(el)
					fi++
				}
			}
		}
		// Keep each risk's failed-element row ascending for deterministic
		// stage-two and coverage walks.
		row := p.failEls[p.failOff[i]:fi]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
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
func planFor(v risk.View) (*plan, *risk.Overlay) {
	switch m := v.(type) {
	case *risk.Model:
		return modelPlan(m), nil
	case *risk.Overlay:
		return modelPlan(m.Base()), m
	}
	panic(fmt.Sprintf("localize: no compiled plan for view type %T", v))
}

func modelPlan(m *risk.Model) *plan {
	if p, ok := m.CachedPlan().(*plan); ok {
		engineCounters.planReuses.Add(1)
		return p
	}
	p := compilePlan(m)
	m.StorePlan(p)
	engineCounters.planCompiles.Add(1)
	return p
}

// runView is the mutable per-call state: the shared plan, the overlay
// delta (nil maps for pure-model runs), the alive/pending masks, and the
// incrementally-maintained per-risk alive counters.
type runView struct {
	p    *plan
	nAll int32

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

	// failedRisks: indices with ≥1 failed edge (base or overlay), sorted
	// by ref.
	failedRisks []int32
}

func (rv *runView) ref(i int32) object.Ref {
	if int(i) < rv.p.nRisks {
		return rv.p.refs[i]
	}
	return rv.extraRefs[int(i)-rv.p.nRisks]
}

func (rv *runView) refLess(a, b int32) bool { return rv.ref(a).Less(rv.ref(b)) }

// forEachDep invokes fn for every dependent element of risk i.
func (rv *runView) forEachDep(i int32, fn func(el int32)) {
	if int(i) < rv.p.nRisks {
		for _, el := range rv.p.deps[rv.p.depOff[i]:rv.p.depOff[i+1]] {
			fn(el)
		}
	}
	for _, el := range rv.extraDeps[i] {
		fn(el)
	}
}

// forEachFailed invokes fn for every element whose edge to risk i is
// failed (base marks, then overlay marks; the two sets are disjoint).
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

// newRunView composes the plan with the overlay delta (o may be nil) and
// initializes the masks and counters.
func newRunView(p *plan, o *risk.Overlay) *runView {
	rv := &runView{p: p, nAll: int32(p.nRisks)}
	if o != nil {
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
			i := lookup(ref)
			if rv.extraDeps == nil {
				rv.extraDeps = make(map[int32][]int32)
				rv.elCreated = make(map[int32][]int32)
			}
			rv.extraDeps[i] = append(rv.extraDeps[i], int32(el))
			rv.elCreated[int32(el)] = append(rv.elCreated[int32(el)], i)
			created[int64(el)<<32|int64(i)] = struct{}{}
		})
		o.ForEachOverlayMark(func(el risk.ElementID, ref object.Ref) {
			i := lookup(ref)
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
	rv.alive.setFirst(p.nElements)
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
		rv.aliveDeps[i] = p.deg(i)
		rv.aliveFailed[i] = p.failCnt(i)
	}
	for i, els := range rv.extraDeps {
		rv.aliveDeps[i] += int32(len(els))
	}
	for i, els := range rv.marks {
		rv.aliveFailed[i] += int32(len(els))
	}

	if len(rv.marks) == 0 {
		rv.failedRisks = p.failedRisks
	} else {
		seen := make(map[int32]struct{}, len(p.failedRisks)+len(rv.marks))
		merged := make([]int32, 0, len(p.failedRisks)+len(rv.marks))
		for _, i := range p.failedRisks {
			seen[i] = struct{}{}
			merged = append(merged, i)
		}
		for i := range rv.marks {
			if _, ok := seen[i]; !ok {
				merged = append(merged, i)
			}
		}
		sort.Slice(merged, func(a, b int) bool { return rv.refLess(merged[a], merged[b]) })
		rv.failedRisks = merged
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
