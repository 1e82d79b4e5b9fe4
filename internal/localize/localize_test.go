package localize

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/risk"
)

// figure5Model reproduces the paper's Figure 5 switch risk model exactly:
//
//	pairs:  E1-E2  E2-E3  E3-E4  E4-E5  E5-E6  E6-E7
//	risks:  C1     F1     F2     C2     C3     F3
//
// Edges (fail marked *):
//
//	E1-E2: C1, F1
//	E2-E3: F1*, F2*          (F1 h=1? no — see below)
//	E3-E4: F2*
//	E4-E5: F2*, C2*
//	E5-E6: F2*, C3*
//	E6-E7: C3*, F3*
//
// Ratios from the figure: C1 h=0; F1 h=1 c=0.4? The figure shows F1 h=0,
// F2 h=1 c=0.8, C2 h=1 c=0.4(?), C3 h=0.3, F3 h=0.3. We encode the
// essential structure: F2 has hit 1 and the highest coverage; after
// pruning F2's dependents, the leftover observation E6-E7 has only
// partial-hit risks and is explained by the change log (F3 was recently
// modified).
func figure5Model(t testing.TB) (*risk.Model, map[string]object.Ref) {
	t.Helper()
	m := risk.NewModel("figure5")
	refs := map[string]object.Ref{
		"C1": object.Contract(1),
		"F1": object.Filter(1),
		"F2": object.Filter(2),
		"C2": object.Contract(2),
		"C3": object.Contract(3),
		"F3": object.Filter(3),
	}
	edges := map[string][]string{
		"E1-E2": {"C1", "F1"},
		"E2-E3": {"F1", "F2"},
		"E3-E4": {"F2"},
		"E4-E5": {"F2", "C2"},
		"E5-E6": {"F2", "C3"},
		"E6-E7": {"C3", "F3"},
		// Healthy pair keeping C3/F3 below hit ratio 1 even after F2's
		// dependents are pruned — the partial-fault regime stage 2 exists
		// for.
		"E7-E8": {"C3", "F3"},
	}
	failed := map[string][]string{
		"E2-E3": {"F2"},
		"E3-E4": {"F2"},
		"E4-E5": {"F2", "C2"},
		"E5-E6": {"F2", "C3"},
		"E6-E7": {"C3", "F3"},
	}
	for el, risks := range edges {
		id := m.EnsureElement(el)
		for _, r := range risks {
			m.AddEdge(id, refs[r])
		}
	}
	for el, risks := range failed {
		id, _ := m.ElementByLabel(el)
		for _, r := range risks {
			m.MarkFailed(id, refs[r])
		}
	}
	return m, refs
}

func TestScoutFigure5(t *testing.T) {
	m, refs := figure5Model(t)
	// F3 was recently modified (the paper's assumption in the example).
	oracle := SetOracle(object.NewSet(refs["F3"]))
	res := Scout(m, oracle)

	want := []object.Ref{refs["C3"], refs["F3"]}
	object.SortRefs(want)
	// Stage 1 picks F2 (hit 1, max coverage). Stage 2 inspects E6-E7's
	// failed risks {C3, F3}; only F3 is recently changed.
	wantHyp := []object.Ref{refs["F2"], refs["F3"]}
	object.SortRefs(wantHyp)
	if !reflect.DeepEqual(res.Hypothesis, wantHyp) {
		t.Errorf("Hypothesis = %v, want %v (F2 from stage 1, F3 from change log)", res.Hypothesis, wantHyp)
	}
	if len(res.ChangeLogPicks) != 1 || res.ChangeLogPicks[0] != refs["F3"] {
		t.Errorf("ChangeLogPicks = %v, want [F3]", res.ChangeLogPicks)
	}
	if len(res.Unexplained) != 0 {
		t.Errorf("Unexplained = %v, want none", res.Unexplained)
	}
	if res.Explained != 5 {
		t.Errorf("Explained = %d, want 5", res.Explained)
	}
}

func TestScoutWithoutChangeLogLeavesTailUnexplained(t *testing.T) {
	m, refs := figure5Model(t)
	res := Scout(m, NoChanges{})
	if !reflect.DeepEqual(res.Hypothesis, []object.Ref{refs["F2"]}) {
		t.Errorf("Hypothesis = %v, want [F2]", res.Hypothesis)
	}
	if len(res.Unexplained) != 1 {
		t.Errorf("Unexplained = %v, want the E6-E7 observation", res.Unexplained)
	}
}

func TestScoutNilOracle(t *testing.T) {
	m, refs := figure5Model(t)
	res := Scout(m, nil)
	if !reflect.DeepEqual(res.Hypothesis, []object.Ref{refs["F2"]}) {
		t.Errorf("nil oracle must behave like NoChanges: %v", res.Hypothesis)
	}
}

func TestScoutCleanModel(t *testing.T) {
	m, _ := figure5Model(t)
	m.ResetFailures()
	res := Scout(m, NoChanges{})
	if len(res.Hypothesis) != 0 || res.Explained != 0 || res.Iterations != 0 {
		t.Errorf("clean model must produce empty result: %+v", res)
	}
}

func TestScoreFigure5(t *testing.T) {
	m, refs := figure5Model(t)

	// SCORE-1: only hit-ratio-1 risks eligible → finds F2 and C2 (C2's
	// only dependent failed), misses the partial-hit C3/F3 tail.
	res := Score(m, 1.0)
	hyp := object.NewSet(res.Hypothesis...)
	if !hyp.Has(refs["F2"]) {
		t.Errorf("SCORE-1 must find F2: %v", res.Hypothesis)
	}
	if hyp.Has(refs["F3"]) || hyp.Has(refs["C3"]) {
		t.Errorf("SCORE-1 must not find partial-hit risks: %v", res.Hypothesis)
	}
	if len(res.Unexplained) == 0 {
		t.Error("SCORE-1 must leave the E6-E7 observation unexplained")
	}

	// SCORE-0.5: C3 (hit 2/3) becomes eligible and explains E6-E7.
	res = Score(m, 0.5)
	hyp = object.NewSet(res.Hypothesis...)
	if !hyp.Has(refs["C3"]) && !hyp.Has(refs["F3"]) {
		t.Errorf("SCORE-0.5 should cover the tail observation: %v", res.Hypothesis)
	}
}

func TestScoutPicksAllTiedCandidates(t *testing.T) {
	// Two risks with identical dependent sets, both fully failed: both
	// "explain the problem best" (the paper's Figure 4a discussion) and
	// both enter the hypothesis in the same iteration.
	m := risk.NewModel("tie")
	e := m.EnsureElement("1-2")
	a, b := object.EPG(1), object.Contract(9)
	m.AddEdge(e, a)
	m.AddEdge(e, b)
	m.MarkFailed(e, a)
	m.MarkFailed(e, b)
	res := Scout(m, NoChanges{})
	if len(res.Hypothesis) != 2 {
		t.Errorf("tied candidates must both be picked: %v", res.Hypothesis)
	}
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", res.Iterations)
	}
}

func TestScoutPruningUnlocksNextIteration(t *testing.T) {
	// Two independent full faults: greedy picks them over two iterations
	// (different coverage) or one (equal coverage); all observations end
	// explained either way.
	m := risk.NewModel("multi")
	f1, f2 := object.Filter(1), object.Filter(2)
	for i, label := range []string{"a", "b", "c"} {
		el := m.EnsureElement(label)
		m.AddEdge(el, f1)
		m.MarkFailed(el, f1)
		_ = i
	}
	for _, label := range []string{"x", "y"} {
		el := m.EnsureElement(label)
		m.AddEdge(el, f2)
		m.MarkFailed(el, f2)
	}
	res := Scout(m, NoChanges{})
	want := []object.Ref{f1, f2}
	object.SortRefs(want)
	if !reflect.DeepEqual(res.Hypothesis, want) {
		t.Errorf("Hypothesis = %v, want %v", res.Hypothesis, want)
	}
	if res.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2 (coverage 3 then 2)", res.Iterations)
	}
	if len(res.Unexplained) != 0 {
		t.Error("all observations must be explained")
	}
}

func TestScoutHonorsHitRatioOnPrunedModel(t *testing.T) {
	// After pruning F2's dependents (Figure 5), C3's hit ratio rises from
	// 1/3 to 1/1 in the pruned model — the second iteration must pick it
	// up without the change log... unless its remaining coverage is zero.
	m := risk.NewModel("prune")
	fBig := object.Filter(1)
	cSmall := object.Contract(1)
	// e1, e2 depend on fBig (both failed). e2 and e3 depend on cSmall;
	// e3's edge to cSmall failed too.
	e1 := m.EnsureElement("e1")
	e2 := m.EnsureElement("e2")
	e3 := m.EnsureElement("e3")
	m.AddEdge(e1, fBig)
	m.AddEdge(e2, fBig)
	m.AddEdge(e2, cSmall)
	m.AddEdge(e3, cSmall)
	m.MarkFailed(e1, fBig)
	m.MarkFailed(e2, fBig)
	m.MarkFailed(e3, cSmall)

	res := Scout(m, NoChanges{})
	// Iteration 1: fBig (hit 1, cov 2) wins over cSmall (hit 1/2).
	// Pruning removes e1, e2. Iteration 2: cSmall now hit 1/1 over the
	// remaining model and explains e3.
	want := []object.Ref{cSmall, fBig}
	object.SortRefs(want)
	if !reflect.DeepEqual(res.Hypothesis, want) {
		t.Errorf("Hypothesis = %v, want %v", res.Hypothesis, want)
	}
}

func TestChangeLogOracle(t *testing.T) {
	log := faultlog.NewChangeLog()
	t0 := time.Date(2018, 7, 2, 9, 0, 0, 0, time.UTC)
	log.Append(t0, faultlog.OpModify, object.Filter(3), "tweak")
	o := ChangeLogOracle{Log: log, Since: t0.Add(-time.Hour)}
	if !o.RecentlyChanged(object.Filter(3)) {
		t.Error("filter 3 changed within the window")
	}
	if o.RecentlyChanged(object.Filter(4)) {
		t.Error("filter 4 never changed")
	}
	late := ChangeLogOracle{Log: log, Since: t0.Add(time.Hour)}
	if late.RecentlyChanged(object.Filter(3)) {
		t.Error("change is older than the window")
	}
}

func TestEvaluate(t *testing.T) {
	res := &Result{Hypothesis: []object.Ref{object.Filter(1), object.Filter(2)}}
	acc := res.Evaluate([]object.Ref{object.Filter(2), object.Filter(3)})
	if acc.TruePositives != 1 {
		t.Errorf("TP = %d", acc.TruePositives)
	}
	if acc.Precision != 0.5 || acc.Recall != 0.5 {
		t.Errorf("P=%v R=%v, want 0.5/0.5", acc.Precision, acc.Recall)
	}
	empty := &Result{}
	acc = empty.Evaluate(nil)
	if acc.Precision != 0 || acc.Recall != 0 {
		t.Error("degenerate inputs must not divide by zero")
	}
}

// randomAnnotatedModel builds a random bipartite model with fully-failed
// risks so every observation is explainable by stage 1.
func randomAnnotatedModel(seed int64) *risk.Model {
	rng := rand.New(rand.NewSource(seed))
	m := risk.NewModel("rand")
	nElems := 5 + rng.Intn(30)
	nRisks := 3 + rng.Intn(10)
	els := make([]risk.ElementID, nElems)
	for i := range els {
		els[i] = m.EnsureElement(labelFor(i))
	}
	for i := range els {
		for r := 0; r < 1+rng.Intn(3); r++ {
			m.AddEdge(els[i], object.Filter(object.ID(rng.Intn(nRisks))))
		}
	}
	// Fail a couple of risks fully.
	for r := 0; r < 2; r++ {
		ref := object.Filter(object.ID(rng.Intn(nRisks)))
		for _, el := range m.ElementsOf(ref) {
			m.MarkFailed(el, ref)
		}
	}
	return m
}

func labelFor(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// TestScoutExplainsEverythingOnFullFaults: with only full-object faults,
// stage 1 alone must explain every observation (the invariant behind the
// paper's claim that SCOUT always finds full faults).
func TestScoutExplainsEverythingOnFullFaults(t *testing.T) {
	f := func(seed int64) bool {
		m := randomAnnotatedModel(seed)
		res := Scout(m, NoChanges{})
		return len(res.Unexplained) == 0 &&
			res.Explained == len(m.FailureSignature())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHypothesisObjectsHaveFailedEdges: every object SCOUT or SCORE emits
// must have at least one failed edge (no hallucinated suspects).
func TestHypothesisObjectsHaveFailedEdges(t *testing.T) {
	f := func(seed int64) bool {
		m := randomAnnotatedModel(seed)
		for _, res := range []*Result{Scout(m, NoChanges{}), Score(m, 0.6), Score(m, 1.0)} {
			for _, ref := range res.Hypothesis {
				if len(m.FailedElementsOf(ref)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScoutDeterministic: same model, same oracle → same result.
func TestScoutDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		a := Scout(randomAnnotatedModel(seed), NoChanges{})
		b := Scout(randomAnnotatedModel(seed), NoChanges{})
		return reflect.DeepEqual(a.Hypothesis, b.Hypothesis) &&
			a.Explained == b.Explained && a.Iterations == b.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScoreThresholdMonotonicity(t *testing.T) {
	// Lowering the threshold can only add eligible risks, so explained
	// observations never decrease.
	f := func(seed int64) bool {
		m := randomAnnotatedModel(seed)
		// Add one partial fault to differentiate thresholds.
		rng := rand.New(rand.NewSource(seed + 42))
		refs := m.Risks()
		ref := refs[rng.Intn(len(refs))]
		if els := m.ElementsOf(ref); len(els) > 1 {
			m.MarkFailed(els[0], ref)
		}
		strict := Score(m, 1.0)
		loose := Score(m, 0.3)
		return loose.Explained >= strict.Explained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScoutStepsTrace(t *testing.T) {
	m, refs := figure5Model(t)
	res := Scout(m, SetOracle(object.NewSet(refs["F3"])))
	if len(res.Steps) != 1 {
		t.Fatalf("stage-1 steps = %d, want 1", len(res.Steps))
	}
	s := res.Steps[0]
	if len(s.Picked) != 1 || s.Picked[0] != refs["F2"] {
		t.Errorf("step picked %v, want [F2]", s.Picked)
	}
	if s.Coverage != 4 {
		t.Errorf("step coverage = %d, want 4", s.Coverage)
	}
	if s.Pruned < 4 {
		t.Errorf("step pruned = %d, want >= 4", s.Pruned)
	}
}
