// The package's case runner. A case is a scenario — a model's edges and
// the failures marked on it — marked on overlays over two builds of the
// model; check holds the first to the reference engine (ref_test.go), the
// second to the first, and both to the properties every localization must
// have. A scenario's elements spread over switches, and each switch's view
// of its marks is checked too: on its range of the controller model,
// against the reference, and on its own model. A scenario may mark more
// of the overlays' edges after their first localization, which must then
// localize as the reference does. Random cases come from one generator,
// randomModel (FuzzLocalize feeds it a fuzzer's bytes), and workload cases
// from internal/workload's fault scenarios through one loop, runWorkload.

package localize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/workload"
)

// results are one view's localizations: SCOUT with the case's change
// oracle and blind to change, and SCORE at thresholds 0.6 and 1; and
// whether the view was then marked again and localized once more.
type results struct {
	scout, blind, score06, score1 *Result
	remarked                      bool
}

// recordingOracle answers from changed and records the calls it gets.
type recordingOracle struct {
	calls   []object.Ref
	changed object.Set
}

func (o *recordingOracle) RecentlyChanged(ref object.Ref) bool {
	o.calls = append(o.calls, ref)
	return o.changed.Has(ref)
}

// check is the runner's check on a case: v, an overlay or a marked model,
// and twin, an overlay carrying the same marks. On v the engine
// returns what the reference engine returns, consulting the change oracle
// in the same order (ascending pending element, then ref); on twin it
// returns what it returned on v, with the same calls; on each, a second
// run returns the same. The results hold what every localization must: a
// sorted hypothesis whose every object has a failed edge; explained and
// unexplained observations that add up to the failure signature; every
// dependent of a fully failed risk explained by SCOUT's first stage; and
// SCORE explaining no less at a lower threshold. It returns v's results.
func check(t *testing.T, label string, v risk.View, twin *risk.Overlay, changed object.Set) results {
	t.Helper()
	var r results
	var calls []object.Ref
	for i, view := range []risk.View{v, twin} {
		eng, again := &recordingOracle{changed: changed}, &recordingOracle{changed: changed}
		got := results{scout: Scout(view, eng), blind: Scout(view, nil), score06: Score(view, 0.6), score1: Score(view, 1)}
		want, wantCalls, against := r, calls, "the twin, against the view"
		if i == 0 {
			ref := &recordingOracle{changed: changed}
			want = results{scout: RefScout(view, ref), blind: RefScout(view, nil), score06: RefScore(view, 0.6), score1: RefScore(view, 1)}
			wantCalls, against = ref.calls, "the view, against the reference engine"
		}
		for _, p := range []struct {
			name      string
			want, got any
		}{
			{"Scout", want.scout, got.scout},
			{"Scout's change-log calls", wantCalls, eng.calls},
			{"Scout blind to change", want.blind, got.blind},
			{"Score-0.6", want.score06, got.score06},
			{"Score-1", want.score1, got.score1},
			{"a second Scout", got.scout, Scout(view, again)},
			{"a second Scout's change-log calls", eng.calls, again.calls},
		} {
			if !reflect.DeepEqual(p.want, p.got) {
				t.Fatalf("%s, %s: %s\nwant %+v\n got %+v", label, against, p.name, p.want, p.got)
			}
		}
		r, calls = got, eng.calls
	}
	failed, observed := map[object.Ref]int{}, map[risk.ElementID]bool{}
	forEachMark(v, func(el risk.ElementID, ref object.Ref) { failed[ref]++; observed[el] = true })
	for _, res := range []*Result{r.scout, r.blind, r.score06, r.score1} {
		if !slices.IsSortedFunc(res.Hypothesis, object.Ref.Compare) || res.Explained+len(res.Unexplained) != len(observed) {
			t.Fatalf("%s: hypothesis %v unsorted, or %d explained and %d unexplained of %d observations", label, res.Hypothesis, res.Explained, len(res.Unexplained), len(observed))
		}
		for _, ref := range res.Hypothesis {
			if failed[ref] == 0 {
				t.Fatalf("%s: %v is in the hypothesis with no failed edge", label, ref)
			}
		}
	}
	for ref, deps := range newView(v).deps {
		if failed[ref] == len(deps) {
			for _, el := range deps {
				if slices.Contains(r.blind.Unexplained, el) {
					t.Fatalf("%s: %v failed fully, and SCOUT left its dependent %d unexplained", label, ref, el)
				}
			}
		}
	}
	if loose := Score(v, 0.3); loose.Explained < r.score1.Explained {
		t.Fatalf("%s: SCORE-0.3 explains %d observations, SCORE-1 %d", label, loose.Explained, r.score1.Explained)
	}
	return r
}

// scenario is a model's elements, each the risks it depends on, and the
// failed edges marked on it by element; marking an edge the model lacks
// creates it. later are edges the model has, marked after a first
// localization. The elements lie in order on switches 1 to switches (one
// when 0), each switch's a run of consecutive elements.
type scenario struct {
	deps          [][]object.Ref
	failed, later map[int][]object.Ref
	switches      int
}

// failAll is the scenario whose every edge failed.
func failAll(deps ...[]object.Ref) scenario {
	s := scenario{deps: deps, failed: map[int][]object.Ref{}}
	for i, refs := range deps {
		s.failed[i] = refs
	}
	return s
}

// switchOf returns the switch element i lies on.
func (s scenario) switchOf(i int) object.ID {
	return object.ID(1 + i*max(s.switches, 1)/len(s.deps))
}

// deployment is the scenario's footprint: element i is the triplet of pair
// i-i on its switch, depending on each of s.deps[i] once.
func (s scenario) deployment() *compile.Deployment {
	n := len(s.deps)
	fp := compile.Footprint{Pairs: make([]compile.SwitchPair, n), Risks: make([][]object.Ref, n), Keys: make([][]rule.Key, n)}
	for i, refs := range s.deps {
		fp.Pairs[i] = compile.SwitchPair{Switch: s.switchOf(i), Pair: policy.MakeEPGPair(object.ID(i), object.ID(i))}
		for _, ref := range refs {
			if !slices.Contains(fp.Risks[i], ref) {
				fp.Risks[i] = append(fp.Risks[i], ref)
			}
		}
	}
	return &compile.Deployment{Footprint: fp}
}

// model builds the scenario's pristine model.
func (s scenario) model() *risk.Model { return risk.NewModel("scenario", s.deployment().Footprint) }

// rules returns, for each of sw's elements with failed edges, a missing
// rule for its triplet whose provenance is those edges' refs.
func (s scenario) rules(sw object.ID, failed map[int][]object.Ref) []rule.Rule {
	var out []rule.Rule
	for i := range s.deps {
		if s.switchOf(i) == sw && len(failed[i]) > 0 {
			out = append(out, rule.Rule{Match: rule.Match{SrcEPG: object.ID(i), DstEPG: object.ID(i)}, Provenance: failed[i]})
		}
	}
	return out
}

// runs marks failed on m, one run of marks a switch, in ascending switch
// order.
func (s scenario) runs(m *risk.Model, failed map[int][]object.Ref) []*risk.SwitchMarks {
	var out []*risk.SwitchMarks
	for sw := object.ID(1); int(sw) <= max(s.switches, 1); sw++ {
		out = append(out, risk.MarkSwitch(m, sw, s.rules(sw, failed), nil))
	}
	return out
}

// overlay is the controller view of m marked with the scenario's failed
// edges.
func (s scenario) overlay(m *risk.Model) *risk.Overlay {
	return risk.NewOverlay(m, s.runs(m, s.failed)...)
}

// run checks the scenario with changed as the change log on overlays over
// two builds of its model; then, if it has later edges, marks them on
// both, the first through the deprecated Patch.Apply onto the localized
// overlay, the second as one overlay of every run, and holds the first's
// next SCOUT run to the reference engine, change-log calls included,
// before checking both again; then every switch's view of its marks: on
// its range of the pristine controller model, held to the reference, and
// on its own model, NewModel over the deployment's OnSwitch, held to the
// first. It returns the first check's results.
func (s scenario) run(t *testing.T, label string, changed object.Set) results {
	t.Helper()
	m := s.model()
	ov, twin := s.overlay(s.model()), s.overlay(m)
	r := check(t, label, ov, twin, changed)
	if len(s.later) > 0 {
		for sw := object.ID(1); int(sw) <= max(s.switches, 1); sw++ {
			risk.AugmentControllerModelPatch(ov, sw, s.rules(sw, s.later), nil).Apply(ov)
		}
		twin = risk.NewOverlay(m, append(s.runs(m, s.failed), s.runs(m, s.later)...)...)
		eng, ref := &recordingOracle{changed: changed}, &recordingOracle{changed: changed}
		if got, want := Scout(ov, eng), RefScout(ov, ref); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(eng.calls, ref.calls) {
			t.Fatalf("%s, marked again: SCOUT %+v calling %v, the reference %+v calling %v", label, got, eng.calls, want, ref.calls)
		}
		check(t, label+", marked again", ov, twin, changed)
		r.remarked = true
	}
	d := s.deployment()
	ctrl := controllerModel(t, d)
	for sw := object.ID(1); int(sw) <= max(s.switches, 1); sw++ {
		rules := s.rules(sw, s.failed)
		own := risk.MarkSwitch(risk.NewModel("scenario", d.OnSwitch(sw)), sw, rules, nil).View()
		check(t, fmt.Sprintf("%s, switch %d", label, sw), risk.MarkSwitch(ctrl, sw, rules, nil).View(), own, changed)
	}
	return r
}

// randomModel draws a scenario: 4 to 43 elements, each depending on one to
// four of 3 to 14 filters, and one or two of the filters failed fully
// (every dependent). When partial, one to three more fail partially (each
// dependent one time in two), each in the change log one time in two, and
// one or two failed edges land where the model may have none, to a filter
// it may not have: marking creates them. The elements spread over 2 to 4
// switches. One time in two, up to three edges the model has and no mark
// names are marked later.
func randomModel(c *oracle.Choices, partial bool) (scenario, object.Set) {
	nRisks := 3 + c.Intn(12)
	filter := func(n int) object.Ref { return object.Filter(object.ID(c.Intn(n))) }
	s := scenario{deps: make([][]object.Ref, 4+c.Intn(40)), failed: map[int][]object.Ref{}}
	for i := range s.deps {
		for k := 1 + c.Intn(4); k > 0; k-- {
			s.deps[i] = append(s.deps[i], filter(nRisks))
		}
	}
	fail := func(ref object.Ref, odds int) {
		for i, refs := range s.deps {
			if slices.Contains(refs, ref) && c.Chance(odds) {
				s.failed[i] = append(s.failed[i], ref)
			}
		}
	}
	for k := 1 + c.Intn(2); k > 0; k-- {
		fail(filter(nRisks), 1)
	}
	changed := object.Set{}
	if partial {
		for k := 1 + c.Intn(3); k > 0; k-- {
			ref := filter(nRisks)
			fail(ref, 2)
			if c.Chance(2) {
				changed.Add(ref)
			}
		}
		for k := 1 + c.Intn(2); k > 0; k-- {
			i := c.Intn(len(s.deps))
			s.failed[i] = append(s.failed[i], filter(nRisks+2))
		}
	}
	s.switches = 2 + c.Intn(3)
	if c.Chance(2) {
		s.later = map[int][]object.Ref{}
		for k := 1 + c.Intn(3); k > 0; k-- {
			i := c.Intn(len(s.deps))
			if ref := s.deps[i][c.Intn(len(s.deps[i]))]; !slices.Contains(s.failed[i], ref) && !slices.Contains(s.later[i], ref) {
				s.later[i] = append(s.later[i], ref)
			}
		}
	}
	return s, changed
}

// runModels checks n scenarios randomModel draws from seed.
func runModels(t *testing.T, seed int64, n int, partial bool) []results {
	t.Helper()
	c := oracle.FromSeed(seed)
	out := make([]results, n)
	for i := range out {
		s, changed := randomModel(c, partial)
		out[i] = s.run(t, fmt.Sprintf("seed %d, model %d", seed, i), changed)
	}
	return out
}

// fabricCase is a workload loop's shape: for seeds 1 to seeds and 1 to
// faults object faults — full and partial, with noise change-log entries,
// the paper's §VI-A regime — one scenario of internal/workload's over the
// small fabric, on the controller model build makes, or on the busiest
// switch's model, its overlay on its range of the controller model.
type fabricCase struct {
	seeds         int64
	faults, noise int
	onSwitch      bool
	build         func(*compile.Deployment) *risk.Model
}

// runWorkload checks every scenario of fc that marks an edge, each on a
// view over one pristine build — build's, or on a switch its range of the
// controller model — held to the reference and to a view over a fresh
// build (on a switch, of its own model).
func runWorkload(t *testing.T, fc fabricCase) []results {
	t.Helper()
	pol, tp, err := workload.Generate(workload.SmallFabricSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(pol, tp)
	if err != nil {
		t.Fatal(err)
	}
	idx := workload.BuildIndex(d)
	candidates, sw := idx.Objects(), object.ID(0)
	build := func() *risk.Model { return fc.build(d) }
	var pristine *risk.Model
	if fc.onSwitch {
		most := -1
		for s, rules := range d.BySwitch {
			if n := len(rules); n > most || n == most && s < sw {
				sw, most = s, n
			}
		}
		idx = idx.OnSwitch(sw)
		candidates = idx.Objects()
		build = func() *risk.Model { return risk.NewModel("switch", d.OnSwitch(sw)) }
		pristine = controllerModel(t, d)
	} else {
		pristine = build()
	}
	var out []results
	for seed := int64(1); seed <= fc.seeds; seed++ {
		for n := 1; n <= fc.faults; n++ {
			sc, err := workload.NewScenario(rand.New(rand.NewSource(seed)), candidates, n, fc.noise)
			if err != nil {
				t.Fatal(err)
			}
			// Both views mark the same missing rules as the pipeline does:
			// a switch's view of its marks, or the controller view of
			// every switch's, in ascending switch order.
			missing := sc.Missing(idx, rand.New(rand.NewSource(seed*1000)))
			view := func(m *risk.Model) *risk.Overlay {
				if fc.onSwitch {
					return risk.MarkSwitch(m, sw, missing[sw], d.Provenance).View()
				}
				var runs []*risk.SwitchMarks
				for _, s := range tp.Switches() {
					runs = append(runs, risk.MarkSwitch(m, s, missing[s], d.Provenance))
				}
				return risk.NewOverlay(m, runs...)
			}
			ov, twin := view(pristine), view(build())
			if ov.NumFailedEdges() > 0 { // a scenario can hit only undeployed objects
				out = append(out, check(t, fmt.Sprintf("seed %d, %d faults", seed, n), ov, twin, sc.Changed))
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no scenario marked an edge")
	}
	return out
}

// controllerModel builds d's controller model, failing t on its error.
func controllerModel(t testing.TB, d *compile.Deployment) *risk.Model {
	t.Helper()
	m, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzLocalize runs the fuzzer's bytes as a drawn scenario, with partial
// faults or without, through the runner: later marks and every switch's
// range included. The last two seeds draw later marks.
func FuzzLocalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 9, 3, 2, 7, 1, 0, 5})
	f.Add([]byte{0, 1, 1, 0, 3, 1, 2, 1, 4, 0, 2, 0}) // partial, then a later mark
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		partial := c.Chance(2)
		s, changed := randomModel(c, partial)
		s.run(t, "fuzzed", changed)
	})
}
