package localize

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
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
	s := figure5()
	m := s.overlay(s.model())
	if got, want := Scout(m, nil), Scout(m, NoChanges{}); !reflect.DeepEqual(got, want) {
		t.Errorf("a nil oracle: %+v; NoChanges gives %+v", got, want)
	}
}

// exercised fails the test unless the runs did what the case is for.
func exercised(t *testing.T, what string, n int) {
	t.Helper()
	if n == 0 {
		t.Errorf("no run %s; the case proves nothing", what)
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

// TestCreatedRisksKeepSerialOrder: switch 1's element creates X, and
// switch 2's creates Y, then X, edges outside their risk lists. Every
// view localizes as the reference does, each switch's range included; the
// controller view numbers X before Y, as marking rule by rule in switch
// order did; and every count reads as that marking's two overlays read.
func TestCreatedRisksKeepSerialOrder(t *testing.T) {
	x, y := object.Filter(9), object.Filter(8)
	s := scenario{deps: [][]object.Ref{{object.Filter(1)}, {object.Filter(1)}}, failed: map[int][]object.Ref{0: {x}, 1: {y, x}}, switches: 2}
	s.run(t, "X, then Y and X", nil)
	ov, ctrl := s.overlay(s.model()), controllerModel(t, s.deployment())
	if got, want := ov.ExtraRiskRefs(), []object.Ref{x, y}; !reflect.DeepEqual(got, want) {
		t.Errorf("the controller view's created risks %v, want %v", got, want)
	}
	for _, c := range []struct {
		view risk.View
		want string
	}{
		{ov, `risk model "scenario": 2 elements, 3 risks, 5 edges (3 failed)`},
		{risk.MarkSwitch(ctrl, 1, s.rules(1, s.failed), nil).View(), `risk model "controller": 1 elements, 4 risks, 3 edges (1 failed)`},
		{risk.MarkSwitch(ctrl, 2, s.rules(2, s.failed), nil).View(), `risk model "controller": 1 elements, 5 risks, 4 edges (2 failed)`},
	} {
		if got := c.view.String(); got != c.want {
			t.Errorf("%s, want %s", got, c.want)
		}
	}
}

// TestListProvenanceCreatedEdges: a compiled deployment whose pair is
// bound by two contracts sharing a filter, the second with no filter of
// its own. The rules the sort keeps under the shared filter carry the
// second contract's provenance, which the pair's risk list, read from the
// first binding, lacks (ROADMAP 1(c)): marking them creates edges, and the
// contract's risk. Every switch's view and the controller view of those
// rules missing, and of all the pair's rules missing, localize as the
// reference does.
func TestListProvenanceCreatedEdges(t *testing.T) {
	p := policy.New("list-provenance")
	p.AddVRF(policy.VRF{ID: 7})
	p.AddEPG(policy.EPG{ID: 1, Name: "a", VRF: 7})
	p.AddEPG(policy.EPG{ID: 2, Name: "b", VRF: 7})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	for _, port := range []uint16{100, 101, 102, 103, 104} {
		p.AddFilter(policy.Filter{ID: object.ID(port), Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, port)}})
	}
	p.AddContract(policy.Contract{ID: 20, Filters: []object.ID{101, 100, 102, 103, 104}})
	p.AddContract(policy.Contract{ID: 10, Filters: []object.ID{101}})
	p.Bind(1, 2, 20)
	p.Bind(2, 1, 10)
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, twin, created := controllerModel(t, d), controllerModel(t, d), 0
	for _, only := range []object.Ref{object.Contract(10), {}} {
		var runs, twins []*risk.SwitchMarks
		for _, sw := range []object.ID{1, 2} {
			missing := slices.DeleteFunc(slices.Clone(d.RulesFor(sw)), func(r rule.Rule) bool {
				return r.Action != rule.Allow || only != (object.Ref{}) && !slices.Contains(r.Provenance, only)
			})
			runs = append(runs, risk.MarkSwitch(ctrl, sw, missing, d.Provenance))
			twins = append(twins, risk.MarkSwitch(twin, sw, missing, d.Provenance))
			own := risk.MarkSwitch(risk.NewModel("switch", d.OnSwitch(sw)), sw, missing, d.Provenance).View()
			view := runs[len(runs)-1].View()
			check(t, fmt.Sprintf("%v missing, switch %d", only, sw), view, own, nil)
			created += len(view.CreatedEdges())
		}
		check(t, fmt.Sprintf("%v missing, the controller", only), risk.NewOverlay(ctrl, runs...), risk.NewOverlay(twin, twins...), nil)
	}
	exercised(t, "created an edge a rule's own provenance names", created)
}

// TestUnknownViewPanics: the engine runs *risk.Model and
// *risk.Overlay only; any other View is a programming error reported by
// type name, not a silent slow path.
func TestUnknownViewPanics(t *testing.T) {
	type wrappedModel struct{ *risk.Model }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "wrappedModel") {
			t.Fatalf("Scout on an unknown View: recovered %v, want a panic naming the type", r)
		}
	}()
	Scout(wrappedModel{risk.NewModel("m", compile.Footprint{})}, NoChanges{})
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

// TestModelArraysMatchReference: the engine reads the model's arrays as
// they are, so they must be the scenario's edges as the reference reads
// them — risks in ref order, each risk's dependents and each element's
// risks ascending, each edge once — on drawn scenarios whose lists repeat
// refs.
func TestModelArraysMatchReference(t *testing.T) {
	c := oracle.FromSeed(11)
	for i := 0; i < 20; i++ {
		s, _ := randomModel(c, true)
		m, deps := s.model(), map[object.Ref][]risk.ElementID{}
		var refs []object.Ref
		for el, rs := range s.deps {
			for _, ref := range rs {
				if len(deps[ref]) == 0 {
					refs = append(refs, ref)
				}
				if !slices.Contains(deps[ref], risk.ElementID(el)) {
					deps[ref] = append(deps[ref], risk.ElementID(el))
				}
			}
		}
		object.SortRefs(refs)
		if !slices.Equal(m.Risks(), refs) {
			t.Fatalf("model %d: risks %v, want %v", i, m.Risks(), refs)
		}
		for r, ref := range refs {
			if got := m.Dependents(risk.RiskID(r)); !slices.Equal(got, deps[ref]) {
				t.Fatalf("model %d: %v's dependents %v, want %v", i, ref, got, deps[ref])
			}
		}
		for el, rs := range s.deps {
			want := slices.Clone(rs)
			object.SortRefs(want)
			want = slices.Compact(want)
			var got []object.Ref
			for _, r := range m.RisksOf(risk.ElementID(el)) {
				got = append(got, refs[r])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("model %d: element %d's risks %v, want %v", i, el, got, want)
			}
		}
	}
}

// TestConcurrentFirstLocalizations: SCOUT on eight overlays of one model
// from eight goroutines, each reading the model's arrays at once. Every
// result equals the reference. CI runs it under -race.
func TestConcurrentFirstLocalizations(t *testing.T) {
	s, changed := randomModel(oracle.FromSeed(5), true)
	m := s.model()
	want := RefScout(s.overlay(m), SetOracle(changed))
	got := make([]*Result, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Scout(s.overlay(m), SetOracle(changed))
		}()
	}
	wg.Wait()
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("goroutine %d: SCOUT %+v, the reference %+v", i, res, want)
		}
	}
}

// TestAnnotatedSwitchModel: BuildAnnotatedSwitchModel's marked model, on
// which bench/'s staged trace localizes each inconsistent switch, is the
// one place marks are localized on a model itself. For every inconsistent
// switch of the testbed fabric, faulted as cmd/scout's golden testbed case
// is, and of a drawn fault scenario over the small fabric, SCOUT and SCORE
// on that model equal the reference engine, change-log calls included, and
// an overlay of the switch's range of the controller model marked with the
// same rules localizes alike.
func TestAnnotatedSwitchModel(t *testing.T) {
	pol, tp, err := workload.Generate(workload.TestbedSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(pol, tp, fabric.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	for ref, frac := range map[object.Ref]float64{object.Filter(5002): 1, object.EPG(1004): 0.4} {
		if _, err := f.InjectObjectFault(ref, frac); err != nil {
			t.Fatal(err)
		}
	}
	d, missing := f.Deployment(), map[object.ID][]rule.Rule{}
	for _, sw := range tp.Switches() {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := equiv.NewBaseWith(nil).NewChecker().Check(d.RulesFor(sw), s.TCAM().Rules())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Equivalent {
			missing[sw] = rep.MissingRules
		}
	}
	checkAnnotated(t, "testbed", d, missing, object.NewSet(object.EPG(1004)))

	pol, tp, err = workload.Generate(workload.SmallFabricSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = compile.Compile(pol, tp); err != nil {
		t.Fatal(err)
	}
	idx := workload.BuildIndex(d)
	sc, err := workload.NewScenario(rand.New(rand.NewSource(3)), idx.Objects(), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkAnnotated(t, "small fabric", d, sc.Missing(idx, rand.New(rand.NewSource(4))), sc.Changed)
}

// checkAnnotated checks, in ascending switch order, each switch's model
// annotated with its missing rules against an overlay of its range of the
// controller model marked with them.
func checkAnnotated(t *testing.T, label string, d *compile.Deployment, missing map[object.ID][]rule.Rule, changed object.Set) {
	t.Helper()
	ctrl, marked := controllerModel(t, d), 0
	var switches []object.ID
	for sw := range missing {
		switches = append(switches, sw)
	}
	slices.Sort(switches)
	for _, sw := range switches {
		m := risk.BuildAnnotatedSwitchModel(d, sw, missing[sw])
		ov := risk.MarkSwitch(ctrl, sw, missing[sw], d.Provenance).View()
		check(t, fmt.Sprintf("%s, switch %d", label, sw), m, ov, changed)
		if m.NumFailedEdges() > 0 {
			marked++
		}
	}
	exercised(t, label+" localized a marked switch model", marked)
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

// TestDifferentialRandomModels: partial faults, and overlays marked again
// after a first localization, which must localize as the reference does.
func TestDifferentialRandomModels(t *testing.T) {
	remarked := 0
	for _, r := range runModels(t, 1, 120, true) {
		if r.remarked {
			remarked++
		}
	}
	exercised(t, "marked a localized model again", remarked)
}

func TestStageTwoOracleOrderDeterministic(t *testing.T) { runModels(t, 30, 30, true) }

func TestOverlayCloneInterchangeable(t *testing.T) {
	runWorkload(t, fabricCase{seeds: 5, faults: 6, noise: 5, build: func(d *compile.Deployment) *risk.Model {
		return controllerModel(t, d)
	}})
}

func TestOverlayCloneInterchangeableSwitchModel(t *testing.T) {
	runWorkload(t, fabricCase{seeds: 5, faults: 2, noise: 3, onSwitch: true})
}

// TestDifferentialOverlays: every build of the controller model goes
// through the shim that once took a worker count, at 1, 2 and NumCPU in
// turn — the pristine twin at 1, then each scenario's model at the next —
// so every scenario holds an overlay over a model built at one count to an
// overlay over a build at another: separate builds localize alike.
func TestDifferentialOverlays(t *testing.T) {
	workers, builds := []int{1, 2, runtime.NumCPU()}, 0
	runWorkload(t, fabricCase{seeds: 4, faults: 5, noise: 5, build: func(d *compile.Deployment) *risk.Model {
		builds++
		return risk.BuildControllerModelParallel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true}, workers[(builds-1)%len(workers)])
	}})
}
