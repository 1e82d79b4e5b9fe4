// Reference localization engine: the original map-of-maps implementation
// of SCOUT and SCORE, retained as the readable specification the
// engine (plan.go/engine.go) is pinned against.
// RefScout/RefScore must stay Result-identical to Scout/Score — the
// differential and edge tests enforce it.

package localize

import (
	"fmt"
	"sort"

	"scout/internal/object"
	"scout/internal/risk"
)

// view is the mutable working state of the reference engine: adjacency
// extracted once from the (immutable) model plus an alive mask that
// implements Algorithm 1's Prune.
type view struct {
	// risks are the view's refs, sorted.
	risks []object.Ref
	// deps[ref] = elements depending on ref.
	deps map[object.Ref][]risk.ElementID
	// failed[ref] = elements whose edge to ref is marked fail.
	failed map[object.Ref]map[risk.ElementID]struct{}
	// failedRisks[el] = refs with a failed edge to el, sorted.
	failedRisks map[risk.ElementID][]object.Ref
	alive       []bool
}

// newView reads m's adjacency: a model's through its methods, an
// overlay's as its base's in its range plus the edges the overlay creates,
// in the view's element numbering; and m's failure marks.
func newView(m risk.View) *view {
	v := &view{
		deps:        make(map[object.Ref][]risk.ElementID),
		failed:      make(map[object.Ref]map[risk.ElementID]struct{}),
		failedRisks: make(map[risk.ElementID][]object.Ref),
		alive:       make([]bool, m.NumElements()),
	}
	for i := range v.alive {
		v.alive[i] = true
	}
	markFailed := func(el risk.ElementID, ref object.Ref) {
		if v.failed[ref] == nil {
			v.failed[ref] = make(map[risk.ElementID]struct{})
		}
		v.failed[ref][el] = struct{}{}
		v.failedRisks[el] = append(v.failedRisks[el], ref)
	}
	base, lo, refs := viewOf(m)
	for r, ref := range base.Risks() {
		for _, el := range base.Dependents(risk.RiskID(r)) {
			if el -= lo; 0 <= el && int(el) < len(v.alive) {
				v.deps[ref] = append(v.deps[ref], el)
			}
		}
	}
	if ov, ok := m.(*risk.Overlay); ok {
		for _, e := range ov.CreatedEdges() {
			v.deps[refs[e.Risk]] = append(v.deps[refs[e.Risk]], e.El-lo)
		}
	}
	forEachMark(m, markFailed)
	for ref := range v.deps {
		v.risks = append(v.risks, ref)
	}
	object.SortRefs(v.risks)
	for _, refs := range v.failedRisks {
		object.SortRefs(refs)
	}
	return v
}

// viewOf returns m's base model, the first base element m views, and the
// refs of m's risks by ID.
func viewOf(m risk.View) (base *risk.Model, lo risk.ElementID, refs []object.Ref) {
	switch m := m.(type) {
	case *risk.Model:
		return m, 0, m.Risks()
	case *risk.Overlay:
		lo, _ = m.Range()
		return m.Base(), lo, append(m.Base().Risks(), m.ExtraRiskRefs()...)
	}
	panic(fmt.Sprintf("localize: cannot read view type %T", m))
}

// forEachMark invokes fn for every failed edge of m, in m's element
// numbering.
func forEachMark(m risk.View, fn func(el risk.ElementID, ref object.Ref)) {
	base, lo, refs := viewOf(m)
	marks := base.Marks()
	if ov, ok := m.(*risk.Overlay); ok {
		marks = ov.Marks()
	}
	for _, mk := range marks {
		fn(mk.El-lo, refs[mk.Risk])
	}
}

// observations returns the elements with a failed edge: the failure
// signature.
func (v *view) observations() map[risk.ElementID]struct{} {
	out := make(map[risk.ElementID]struct{}, len(v.failedRisks))
	for el := range v.failedRisks {
		out[el] = struct{}{}
	}
	return out
}

// aliveCounts returns (|Gi ∩ alive|, |Oi ∩ alive|) for risk ref.
func (v *view) aliveCounts(ref object.Ref) (deps, failed int) {
	for _, el := range v.deps[ref] {
		if !v.alive[el] {
			continue
		}
		deps++
		if _, f := v.failed[ref][el]; f {
			failed++
		}
	}
	return deps, failed
}

// RefScout is the reference implementation of Scout (Algorithm 1).
func RefScout(m risk.View, oracle ChangeOracle) *Result {
	v := newView(m)
	res := &Result{}
	hypothesis := make(object.Set)

	pending := v.observations() // P: unexplained observations
	totalObs := len(pending)

	for len(pending) > 0 {
		res.Iterations++
		// K: shared risks with a failed edge from some unexplained
		// observation (lines 6-10).
		candidates := make(object.Set)
		for el := range pending {
			for _, ref := range v.failedRisks[el] {
				candidates.Add(ref)
			}
		}
		// pickCandidates (Algorithm 2): risks with hit ratio 1, then the
		// max-coverage subset among them.
		faultySet := pickCandidates(v, candidates, pending)
		if len(faultySet) == 0 {
			break
		}
		// Prune every element depending on a picked risk (lines 15-17).
		step := Step{Picked: append([]object.Ref(nil), faultySet...)}
		pendingBefore := len(pending)
		for _, ref := range faultySet {
			for _, el := range v.deps[ref] {
				if !v.alive[el] {
					continue
				}
				v.alive[el] = false
				step.Pruned++
				delete(pending, el)
			}
			hypothesis.Add(ref)
		}
		step.Coverage = pendingBefore - len(pending)
		res.Steps = append(res.Steps, step)
	}

	// Stage two (lines 20-25): explain remaining observations via the
	// change log. Pending is walked in ascending element order so the
	// oracle sees a deterministic call sequence.
	if len(pending) > 0 && oracle != nil {
		for _, el := range sortedElements(pending) {
			picked := false
			for _, ref := range v.failedRisks[el] {
				if oracle.RecentlyChanged(ref) {
					if !hypothesis.Has(ref) {
						hypothesis.Add(ref)
						res.ChangeLogPicks = append(res.ChangeLogPicks, ref)
					}
					picked = true
				}
			}
			if picked {
				delete(pending, el)
			}
		}
		object.SortRefs(res.ChangeLogPicks)
	}

	res.Hypothesis = hypothesis.Sorted()
	res.Unexplained = sortedElements(pending)
	res.Explained = totalObs - len(pending)
	return res
}

// pickCandidates implements Algorithm 2: among the candidate risks, keep
// those whose (alive) hit ratio is exactly 1, then return the subset with
// the maximum number of unexplained observations covered.
func pickCandidates(v *view, candidates object.Set, pending map[risk.ElementID]struct{}) []object.Ref {
	maxCov := 0
	var maxSet []object.Ref
	for _, ref := range candidates.Sorted() {
		deps, failed := v.aliveCounts(ref)
		if deps == 0 || failed != deps {
			continue // hit ratio < 1
		}
		cov := 0
		for el := range v.failed[ref] {
			if _, p := pending[el]; p {
				cov++
			}
		}
		if cov == 0 {
			continue
		}
		switch {
		case cov > maxCov:
			maxCov = cov
			maxSet = []object.Ref{ref}
		case cov == maxCov:
			maxSet = append(maxSet, ref)
		}
	}
	return maxSet
}

// RefScore is the reference implementation of Score.
func RefScore(m risk.View, threshold float64) *Result {
	v := newView(m)
	res := &Result{}
	hypothesis := make(object.Set)

	pending := v.observations()
	totalObs := len(pending)

	// Eligible risks: hit ratio >= threshold on the full model.
	var eligible []object.Ref
	for _, ref := range v.risks {
		deps, failed := v.aliveCounts(ref) // full model: everything alive
		if deps == 0 || failed == 0 {
			continue
		}
		if float64(failed)/float64(deps) >= threshold {
			eligible = append(eligible, ref)
		}
	}

	for len(pending) > 0 {
		best := object.Ref{}
		bestCov := 0
		for _, ref := range eligible {
			if hypothesis.Has(ref) {
				continue
			}
			cov := 0
			for el := range v.failed[ref] {
				if _, p := pending[el]; p {
					cov++
				}
			}
			if cov > bestCov || (cov == bestCov && cov > 0 && ref.Compare(best) < 0) {
				best = ref
				bestCov = cov
			}
		}
		if bestCov == 0 {
			break
		}
		res.Iterations++
		hypothesis.Add(best)
		pendingBefore := len(pending)
		for el := range v.failed[best] {
			delete(pending, el)
		}
		res.Steps = append(res.Steps, Step{
			Picked:   []object.Ref{best},
			Coverage: pendingBefore - len(pending),
		})
	}

	res.Hypothesis = hypothesis.Sorted()
	res.Unexplained = sortedElements(pending)
	res.Explained = totalObs - len(pending)
	return res
}

func sortedElements(set map[risk.ElementID]struct{}) []risk.ElementID {
	out := make([]risk.ElementID, 0, len(set))
	for el := range set {
		out = append(out, el)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
