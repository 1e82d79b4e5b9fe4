package localize

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scout/internal/compile"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/risk"
)

// fig5 names the risks of the paper's Figure 5 switch risk model.
var fig5 = map[string]object.Ref{
	"C1": object.Contract(1), "C2": object.Contract(2), "C3": object.Contract(3),
	"F1": object.Filter(1), "F2": object.Filter(2), "F3": object.Filter(3),
}

// refs5 returns Figure 5's named risks, sorted.
func refs5(names ...string) []object.Ref {
	refs := make([]object.Ref, len(names))
	for i, name := range names {
		refs[i] = fig5[name]
	}
	object.SortRefs(refs)
	return refs
}

// figure5 is the paper's Figure 5 switch risk model: EPG pairs E1-E2 to
// E6-E7 over contracts C1-C3 and filters F1-F3, and a healthy E7-E8 that
// keeps C3 and F3 under hit ratio 1 however the rest is pruned. F2 fails on
// its four pairs past E1-E2 — hit ratio 1, the most coverage — and C2 on
// its one. E6-E7 fails on C3 and F3, both partial: once F2's dependents are
// pruned only the change log explains it, the regime SCOUT's second stage
// is for.
func figure5() scenario {
	return scenario{
		deps: [][]object.Ref{
			refs5("C1", "F1"), refs5("F1", "F2"), refs5("F2"), refs5("F2", "C2"),
			refs5("F2", "C3"), refs5("C3", "F3"), refs5("C3", "F3"),
		},
		failed: map[int][]object.Ref{
			1: refs5("F2"), 2: refs5("F2"), 3: refs5("F2", "C2"), 4: refs5("F2", "C3"), 5: refs5("C3", "F3"),
		},
	}
}

// TestScoutFigure5: stage one picks F2; stage two finds E6-E7's failed
// risks C3 and F3, of which the change log names F3.
func TestScoutFigure5(t *testing.T) {
	r := figure5().run(t, "figure 5", object.NewSet(fig5["F3"])).scout
	if !reflect.DeepEqual(r.Hypothesis, refs5("F2", "F3")) || !reflect.DeepEqual(r.ChangeLogPicks, refs5("F3")) || len(r.Unexplained) != 0 || r.Explained != 5 {
		t.Errorf("SCOUT on figure 5: %+v; want F2 from stage one, F3 from the change log, all 5 observations explained", r)
	}
}

func TestScoutWithoutChangeLogLeavesTailUnexplained(t *testing.T) {
	if r := figure5().run(t, "figure 5", nil).blind; !reflect.DeepEqual(r.Hypothesis, refs5("F2")) || len(r.Unexplained) != 1 {
		t.Errorf("SCOUT without a change log: %+v; want F2 and E6-E7 unexplained", r)
	}
}

func TestScoutNilOracle(t *testing.T) {
	m := figure5().model(true)
	if got, want := Scout(m, nil), Scout(m, NoChanges{}); !reflect.DeepEqual(got, want) {
		t.Errorf("a nil oracle: %+v; NoChanges gives %+v", got, want)
	}
}

// checkEmpty asserts that every localization of a case localized nothing.
func checkEmpty(t *testing.T, r results) {
	t.Helper()
	for _, res := range []*Result{r.scout, r.blind, r.score06, r.score1} {
		if len(res.Hypothesis) != 0 || res.Iterations != 0 || len(res.Unexplained) != 0 || res.Explained != 0 || len(res.Steps) != 0 {
			t.Errorf("a model with no failure localized to %+v", res)
		}
	}
}

func TestScoutCleanModel(t *testing.T) {
	s := figure5()
	s.failed = nil
	checkEmpty(t, s.run(t, "clean figure 5", nil))
}

// TestEmptyFailureSignature: a healthy model localizes to nothing in no
// iteration.
func TestEmptyFailureSignature(t *testing.T) {
	checkEmpty(t, scenario{deps: [][]object.Ref{{object.Filter(1)}, {object.Filter(1), object.Contract(1)}}}.run(t, "healthy", nil))
}

// TestScoreFigure5: SCORE-1 admits hit-ratio-1 risks only — F2 — and
// leaves E6-E7 to the partial C3 and F3, unexplained; at 0.6 C3, two of
// whose three pairs failed, is admitted and explains it.
func TestScoreFigure5(t *testing.T) {
	r := figure5().run(t, "figure 5", nil)
	if one := object.NewSet(r.score1.Hypothesis...); !one.Has(fig5["F2"]) || one.Has(fig5["C3"]) || one.Has(fig5["F3"]) || len(r.score1.Unexplained) == 0 {
		t.Errorf("SCORE-1: %+v", r.score1)
	}
	if !slices.Contains(r.score06.Hypothesis, fig5["C3"]) || len(r.score06.Unexplained) != 0 {
		t.Errorf("SCORE-0.6: %+v", r.score06)
	}
}

func TestScoutStepsTrace(t *testing.T) {
	r := figure5().run(t, "figure 5", object.NewSet(fig5["F3"])).scout
	if len(r.Steps) != 1 || !reflect.DeepEqual(r.Steps[0].Picked, refs5("F2")) || r.Steps[0].Coverage != 4 || r.Steps[0].Pruned < 4 {
		t.Errorf("stage-one steps %+v; want one picking F2, covering 4, pruning at least 4", r.Steps)
	}
}

func TestDifferentialFigure5(t *testing.T) {
	figure5().run(t, "figure 5", object.NewSet(fig5["C3"], fig5["F3"]))
}

// TestScoutPicksAllTiedCandidates: two risks with one dependent set, both
// failed, both explain the problem best (the paper's Figure 4a) and enter
// the hypothesis in one iteration.
func TestScoutPicksAllTiedCandidates(t *testing.T) {
	if r := failAll([]object.Ref{object.EPG(1), object.Contract(9)}).run(t, "tie", nil).blind; len(r.Hypothesis) != 2 || r.Iterations != 1 {
		t.Errorf("tied candidates: %+v; want both in one iteration", r)
	}
}

// TestPickCandidatesTieGroup: two disjoint full faults of equal coverage
// are picked together in one step, in ref order.
func TestPickCandidatesTieGroup(t *testing.T) {
	a, b := []object.Ref{object.Contract(1)}, []object.Ref{object.Filter(2)}
	want := []object.Ref{a[0], b[0]}
	object.SortRefs(want)
	r := failAll(a, a, b, b).run(t, "tie group", nil).blind
	if r.Iterations != 1 || len(r.Steps) != 1 || !reflect.DeepEqual(r.Steps[0].Picked, want) || r.Steps[0].Coverage != 4 || r.Steps[0].Pruned != 4 {
		t.Errorf("tie group: %+v; want %v picked in one step covering and pruning 4", r, want)
	}
}

// TestScoutPruningUnlocksNextIteration: two independent full faults, of
// coverage 3 and 2, are picked in two iterations and explain everything.
func TestScoutPruningUnlocksNextIteration(t *testing.T) {
	f1, f2 := []object.Ref{object.Filter(1)}, []object.Ref{object.Filter(2)}
	r := failAll(f1, f1, f1, f2, f2).run(t, "two faults", nil).blind
	if !reflect.DeepEqual(r.Hypothesis, []object.Ref{f1[0], f2[0]}) || r.Iterations != 2 || len(r.Unexplained) != 0 {
		t.Errorf("two full faults: %+v; want both, in two iterations", r)
	}
}

// TestScoutHonorsHitRatioOnPrunedModel: small fails on one of its two
// pairs, big on both of its own; once big's pairs are pruned, small's hit
// ratio over what is left is 1 and the second iteration picks it.
func TestScoutHonorsHitRatioOnPrunedModel(t *testing.T) {
	big, small := object.Filter(1), object.Contract(1)
	want := []object.Ref{big, small}
	object.SortRefs(want)
	s := scenario{deps: [][]object.Ref{{big}, {big, small}, {small}}, failed: map[int][]object.Ref{0: {big}, 1: {big}, 2: {small}}}
	if r := s.run(t, "pruned hit ratio", nil).blind; !reflect.DeepEqual(r.Hypothesis, want) {
		t.Errorf("Hypothesis = %v, want %v", r.Hypothesis, want)
	}
}

// TestZeroAliveDepsMidRun: full (coverage 3) is picked alone first; its
// pruned pairs take all of sub's dependents, so sub — with none alive — is
// skipped, not divided by, and round two picks other.
func TestZeroAliveDepsMidRun(t *testing.T) {
	full, sub, other := object.Filter(1), object.Contract(2), object.Filter(3)
	s := scenario{
		deps:   [][]object.Ref{{full, sub}, {full, sub}, {full}, {other}},
		failed: map[int][]object.Ref{0: {full, sub}, 1: {full}, 2: {full}, 3: {other}},
	}
	if r := s.run(t, "zero alive", nil).blind; !reflect.DeepEqual(r.Hypothesis, []object.Ref{full, other}) || r.Iterations != 2 || len(r.Steps) != 2 {
		t.Errorf("zero alive dependents: %+v; want full then other, two rounds", r)
	}
}

// TestStageTwoOnly: with only partial faults, stage one runs one fruitless
// round and explains nothing; only the change log does.
func TestStageTwoOnly(t *testing.T) {
	a, b := object.Filter(1), object.Contract(2)
	s := scenario{deps: [][]object.Ref{{a}, {a, b}, {b}}, failed: map[int][]object.Ref{0: {a}, 1: {b}}}
	r := s.run(t, "stage two only", object.NewSet(a))
	if blind := r.blind; len(blind.Hypothesis) != 0 || blind.Explained != 0 || len(blind.Unexplained) != 2 || len(blind.Steps) != 0 || blind.Iterations != 1 {
		t.Errorf("without a change log: %+v", blind)
	}
	if sc := r.scout; !reflect.DeepEqual(sc.Hypothesis, []object.Ref{a}) || !reflect.DeepEqual(sc.ChangeLogPicks, []object.Ref{a}) || sc.Explained != 1 || len(sc.Unexplained) != 1 {
		t.Errorf("with %v in the change log: %+v", a, sc)
	}
}

// TestOverlayOnlyFailures: check marks every failure on an overlay over a
// pristine model too — the warm path, where the overlay's delta alone
// carries the run — and two of the failures are edges the model lacks: one
// to a new risk beside a full fault, and the only failure of its pair, to
// a new risk whose one dependent failed, so stage one picks it.
func TestOverlayOnlyFailures(t *testing.T) {
	f, beside, lone := object.Filter(1), object.VRF(7), object.VRF(8)
	want := []object.Ref{f, lone}
	object.SortRefs(want)
	s := scenario{deps: [][]object.Ref{{f}, {f}, {object.Contract(5)}}, failed: map[int][]object.Ref{0: {f, beside}, 1: {f}, 2: {lone}}}
	if r := s.run(t, "overlay only", object.NewSet(beside)); !reflect.DeepEqual(r.blind.Hypothesis, want) {
		t.Errorf("Hypothesis = %v, want %v", r.blind.Hypothesis, want)
	}
}

// TestUnknownViewPanics: the plan engine runs *risk.Model and
// *risk.Overlay only; any other View is a programming error reported by
// type name, not a silent slow path.
func TestUnknownViewPanics(t *testing.T) {
	type wrappedModel struct{ *risk.Model }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "wrappedModel") {
			t.Fatalf("Scout on an unknown View: recovered %v, want a panic naming the type", r)
		}
	}()
	Scout(wrappedModel{risk.NewModel("m")}, NoChanges{})
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
	if late := (ChangeLogOracle{Log: log, Since: t0.Add(time.Hour)}); late.RecentlyChanged(object.Filter(3)) {
		t.Error("change is older than the window")
	}
}

func TestEvaluate(t *testing.T) {
	res := &Result{Hypothesis: []object.Ref{object.Filter(1), object.Filter(2)}}
	if acc := res.Evaluate([]object.Ref{object.Filter(2), object.Filter(3)}); acc.TruePositives != 1 || acc.Precision != 0.5 || acc.Recall != 0.5 {
		t.Errorf("TP %d, P %v, R %v; want 1, 0.5, 0.5", acc.TruePositives, acc.Precision, acc.Recall)
	}
	if acc := (&Result{}).Evaluate(nil); acc.Precision != 0 || acc.Recall != 0 {
		t.Error("degenerate inputs must not divide by zero")
	}
}

// TestPlanCompileOnce pins plan reuse: one compile per pristine model
// revision, none for warm re-runs or for overlays over the same model, and
// one again after the model changes.
func TestPlanCompileOnce(t *testing.T) {
	s, _ := randomModel(oracle.FromSeed(11), true)
	m := s.model(true)
	before := StatsSnapshot()
	Scout(m, NoChanges{})
	Score(m, 1)
	for i := 0; i < 5; i++ {
		ov := risk.NewOverlay(m)
		ov.MarkFailed(0, object.VRF(99))
		Scout(ov, NoChanges{})
	}
	if d := StatsSnapshot().Delta(before); d.PlanCompiles != 1 || d.PlanReuses != 6 {
		t.Errorf("%d plan compiles and %d reuses, want 1 and 6", d.PlanCompiles, d.PlanReuses)
	}
	m.MarkFailed(m.EnsureElement("fresh-element"), object.VRF(1))
	before = StatsSnapshot()
	got, want := Scout(m, NoChanges{}), RefScout(m, NoChanges{})
	if d := StatsSnapshot().Delta(before); !reflect.DeepEqual(got, want) || d.PlanCompiles != 1 {
		t.Errorf("after a change: %d plan compiles, want 1; plan engine %+v, reference %+v", d.PlanCompiles, got, want)
	}
}

// Drawn cases.

// TestScoutExplainsEverythingOnFullFaults: with full faults only, SCOUT's
// first stage explains every observation — why SCOUT always finds full
// faults.
func TestScoutExplainsEverythingOnFullFaults(t *testing.T) {
	for i, r := range runModels(t, 1, 60, false) {
		if len(r.blind.Unexplained) != 0 {
			t.Errorf("model %d: %v unexplained", i, r.blind.Unexplained)
		}
	}
}

func TestHypothesisObjectsHaveFailedEdges(t *testing.T) { runModels(t, 2, 60, false) }

func TestScoutDeterministic(t *testing.T) { runModels(t, 3, 40, false) }

func TestScoreThresholdMonotonicity(t *testing.T) { runModels(t, 42, 40, true) }

func TestDifferentialRandomModels(t *testing.T) { runModels(t, 1, 120, true) }

func TestStageTwoOracleOrderDeterministic(t *testing.T) { runModels(t, 30, 30, true) }

func TestOverlayCloneInterchangeable(t *testing.T) {
	runWorkload(t, fabricCase{seeds: 5, faults: 6, noise: 5, build: func(d *compile.Deployment) *risk.Model {
		return risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	}})
}

func TestOverlayCloneInterchangeableSwitchModel(t *testing.T) {
	runWorkload(t, fabricCase{seeds: 5, faults: 2, noise: 3, onSwitch: true})
}

// TestDifferentialOverlays: every build of the controller model goes
// through the shim that once took a worker count, at 1, 2 and NumCPU in
// turn — the pristine twin at 1, then each scenario's model at the next —
// so every scenario holds a model built at one count to an overlay over a
// build at another: separate builds localize alike.
func TestDifferentialOverlays(t *testing.T) {
	workers, builds := []int{1, 2, runtime.NumCPU()}, 0
	runWorkload(t, fabricCase{seeds: 4, faults: 5, noise: 5, build: func(d *compile.Deployment) *risk.Model {
		builds++
		return risk.BuildControllerModelParallel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true}, workers[(builds-1)%len(workers)])
	}})
}
