// Compiled-plan implementations of SCOUT and SCORE. Each is pinned
// Result-identical to its reference counterpart in ref_test.go
// by the differential tests; the reference engine remains the readable
// specification.

package localize

import (
	"slices"
	"time"

	"scout/internal/object"
	"scout/internal/risk"
)

// planScout is Scout on a compiled plan. Stage one replaces the
// per-round candidate rescan with the incrementally-maintained alive
// counters: a risk is a candidate iff aliveFailed > 0 (some pending
// observation has a failed edge to it), has hit ratio 1 iff
// aliveFailed == aliveDeps, and its coverage is aliveFailed itself. The
// stages' times are added to st.
func planScout(p *plan, v risk.View, oracle ChangeOracle, st *EngineStats) *Result {
	start := time.Now()
	rv := newRunView(p, v)
	res := &Result{}
	hypothesis := make(object.Set)
	totalObs := rv.pendingCount

	var maxSet []int32
	for rv.pendingCount > 0 {
		res.Iterations++
		// pickCandidates (Algorithm 2) over the ref-sorted failed risks.
		maxCov := int32(0)
		maxSet = maxSet[:0]
		for _, i := range rv.failedRisks {
			cov := rv.aliveFailed[i]
			if cov == 0 || cov != rv.aliveDeps[i] {
				continue // not a candidate, or hit ratio < 1
			}
			switch {
			case cov > maxCov:
				maxCov = cov
				maxSet = append(maxSet[:0], i)
			case cov == maxCov:
				maxSet = append(maxSet, i)
			}
		}
		if len(maxSet) == 0 {
			break
		}
		step := Step{Picked: make([]object.Ref, 0, len(maxSet))}
		pendingBefore := rv.pendingCount
		for _, i := range maxSet {
			step.Picked = append(step.Picked, rv.ref(i))
			rv.forEachDep(i, func(el int32) {
				if rv.prune(el) {
					step.Pruned++
				}
			})
			hypothesis.Add(rv.ref(i))
		}
		step.Coverage = pendingBefore - rv.pendingCount
		res.Steps = append(res.Steps, step)
	}
	st.Stage1 += time.Since(start)

	// Stage two: explain leftovers via the change log, walking pending in
	// ascending element order so the oracle call sequence is
	// deterministic.
	if rv.pendingCount > 0 && oracle != nil {
		start = time.Now()
		rv.pending.forEach(func(el int32) {
			picked := false
			for _, ref := range rv.failedRefsOf(el) {
				if oracle.RecentlyChanged(ref) {
					if !hypothesis.Has(ref) {
						hypothesis.Add(ref)
						res.ChangeLogPicks = append(res.ChangeLogPicks, ref)
					}
					picked = true
				}
			}
			if picked {
				rv.pending.clear(el)
				rv.pendingCount--
			}
		})
		object.SortRefs(res.ChangeLogPicks)
		st.Stage2 += time.Since(start)
	}

	res.Hypothesis = hypothesis.Sorted()
	res.Unexplained = pendingElements(rv)
	res.Explained = totalObs - rv.pendingCount
	return res
}

// pendingElements lists the remaining pending observations in the view's
// own element IDs, matching the reference engine's sortedElements shape
// (non-nil even when empty).
func pendingElements(rv *runView) []risk.ElementID {
	out := make([]risk.ElementID, 0, rv.pendingCount)
	rv.pending.forEach(func(el int32) { out = append(out, risk.ElementID(el-rv.lo)) })
	return out
}

// planGreedy is Score's pick loop: each round it rescans the eligible
// risks and picks the one with the largest residual coverage, the first
// in ref order on ties, until none covers a pending observation. eligible
// must be sorted by ref. A picked risk covers nothing afterwards, so it is
// never picked twice.
func planGreedy(rv *runView, eligible []int32, res *Result, hypothesis object.Set) {
	for rv.pendingCount > 0 {
		best, bestCov := int32(-1), int32(0)
		for _, i := range eligible {
			if cov := rv.coverage(i); cov > bestCov {
				best, bestCov = i, cov
			}
		}
		if best < 0 {
			break
		}
		res.Iterations++
		hypothesis.Add(rv.ref(best))
		for _, el := range rv.marks[best] {
			if rv.pending.test(el) {
				rv.pending.clear(el)
				rv.pendingCount--
			}
		}
		res.Steps = append(res.Steps, Step{
			Picked:   []object.Ref{rv.ref(best)},
			Coverage: int(bestCov),
		})
	}
}

// planScore is Score on a compiled plan.
func planScore(p *plan, v risk.View, threshold float64) *Result {
	rv := newRunView(p, v)
	res := &Result{}
	hypothesis := make(object.Set)
	totalObs := rv.pendingCount

	// Eligible risks: hit ratio >= threshold on the full model. The
	// freshly-initialized alive counters are exactly the full-model
	// dependent/failed counts.
	var eligible []int32
	for i := int32(0); i < rv.nAll; i++ {
		deps, failed := rv.aliveDeps[i], rv.aliveFailed[i]
		if deps == 0 || failed == 0 {
			continue
		}
		if float64(failed)/float64(deps) >= threshold {
			eligible = append(eligible, i)
		}
	}
	if len(rv.extraRefs) > 0 { // overlay risks interleave with the plan's
		slices.SortFunc(eligible, rv.refCmp)
	}

	planGreedy(rv, eligible, res, hypothesis)

	res.Hypothesis = hypothesis.Sorted()
	res.Unexplained = pendingElements(rv)
	res.Explained = totalObs - rv.pendingCount
	return res
}
