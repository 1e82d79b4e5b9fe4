// The package's case runner. A case is a scenario — a model's edges and
// the failures marked on it — marked once on a model in place and once on
// an overlay over a pristine twin; check holds the model to the reference
// engine (ref_test.go), the overlay to the model, and both to the
// properties every localization must have. Random cases come from one generator,
// randomModel, and workload cases from internal/workload's fault
// scenarios through one loop, runWorkload.

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
	"scout/internal/risk"
	"scout/internal/workload"
)

// results are one view's localizations: SCOUT with the case's change
// oracle and blind to change, and SCORE at thresholds 0.6 and 1.
type results struct{ scout, blind, score06, score1 *Result }

// recordingOracle answers from changed and records the calls it gets.
type recordingOracle struct {
	calls   []object.Ref
	changed object.Set
}

func (o *recordingOracle) RecentlyChanged(ref object.Ref) bool {
	o.calls = append(o.calls, ref)
	return o.changed.Has(ref)
}

// check is the runner's check on a case: model marked in place, and ov
// over a pristine twin carrying the same marks. On the model the plan
// engine returns what the reference engine returns, consulting the change
// oracle in the same order (ascending pending element, then ref); on the
// overlay it returns what it returned on the model, with the same calls;
// on each, a second run returns the same. The results hold what every
// localization must: a sorted hypothesis whose every object has a failed
// edge; explained and unexplained observations that add up to the failure
// signature; every dependent of a fully failed risk explained by SCOUT's
// first stage; and SCORE explaining no less at a lower threshold. The
// pristine twin stays unmarked. It returns the model's results.
func check(t *testing.T, label string, model *risk.Model, ov *risk.Overlay, changed object.Set) results {
	t.Helper()
	var r results
	var calls []object.Ref
	for i, v := range []risk.View{model, ov} {
		plan, again := &recordingOracle{changed: changed}, &recordingOracle{changed: changed}
		got := results{Scout(v, plan), Scout(v, NoChanges{}), Score(v, 0.6), Score(v, 1)}
		want, wantCalls, against := r, calls, "the overlay, against the model"
		if i == 0 {
			ref := &recordingOracle{changed: changed}
			want = results{RefScout(v, ref), RefScout(v, NoChanges{}), RefScore(v, 0.6), RefScore(v, 1)}
			wantCalls, against = ref.calls, "the model, against the reference engine"
		}
		for _, p := range []struct {
			name      string
			want, got any
		}{
			{"Scout", want.scout, got.scout},
			{"Scout's change-log calls", wantCalls, plan.calls},
			{"Scout blind to change", want.blind, got.blind},
			{"Score-0.6", want.score06, got.score06},
			{"Score-1", want.score1, got.score1},
			{"a second Scout", got.scout, Scout(v, again)},
			{"a second Scout's change-log calls", plan.calls, again.calls},
		} {
			if !reflect.DeepEqual(p.want, p.got) {
				t.Fatalf("%s, %s: %s\nwant %+v\n got %+v", label, against, p.name, p.want, p.got)
			}
		}
		r, calls = got, plan.calls
	}
	observed := len(model.FailureSignature())
	for _, res := range []*Result{r.scout, r.blind, r.score06, r.score1} {
		if !slices.IsSortedFunc(res.Hypothesis, object.Ref.Compare) || res.Explained+len(res.Unexplained) != observed {
			t.Fatalf("%s: hypothesis %v unsorted, or %d explained and %d unexplained of %d observations", label, res.Hypothesis, res.Explained, len(res.Unexplained), observed)
		}
		for _, ref := range res.Hypothesis {
			if len(model.FailedElementsOf(ref)) == 0 {
				t.Fatalf("%s: %v is in the hypothesis with no failed edge", label, ref)
			}
		}
	}
	for _, ref := range model.Risks() {
		if deps := model.ElementsOf(ref); len(model.FailedElementsOf(ref)) == len(deps) {
			for _, el := range deps {
				if slices.Contains(r.blind.Unexplained, el) {
					t.Fatalf("%s: %v failed fully, and SCOUT left its dependent %d unexplained", label, ref, el)
				}
			}
		}
	}
	if loose := Score(model, 0.3); loose.Explained < r.score1.Explained {
		t.Fatalf("%s: SCORE-0.3 explains %d observations, SCORE-1 %d", label, loose.Explained, r.score1.Explained)
	}
	if ov.Base().NumFailedEdges() != 0 {
		t.Fatalf("%s: the overlay marked its pristine base", label)
	}
	return r
}

// scenario is a model's elements, each the risks it depends on, and the
// failed edges marked on it by element; marking an edge the model lacks
// creates it.
type scenario struct {
	deps   [][]object.Ref
	failed map[int][]object.Ref
}

// failAll is the scenario whose every edge failed.
func failAll(deps ...[]object.Ref) scenario {
	s := scenario{deps: deps, failed: map[int][]object.Ref{}}
	for i, refs := range deps {
		s.failed[i] = refs
	}
	return s
}

func labelFor(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// model builds the scenario's model, marked or pristine.
func (s scenario) model(marked bool) *risk.Model {
	m := risk.NewModel("scenario")
	for i, refs := range s.deps {
		el := m.EnsureElement(labelFor(i))
		for _, ref := range refs {
			m.AddEdge(el, ref)
		}
	}
	if marked {
		s.mark(m)
	}
	return m
}

func (s scenario) mark(v risk.Marker) {
	for i := range s.deps {
		for _, ref := range s.failed[i] {
			v.MarkFailed(risk.ElementID(i), ref)
		}
	}
}

// run checks the scenario with changed as the change log.
func (s scenario) run(t *testing.T, label string, changed object.Set) results {
	t.Helper()
	ov := risk.NewOverlay(s.model(false))
	s.mark(ov)
	return check(t, label, s.model(true), ov, changed)
}

// randomModel draws a scenario: 4 to 43 elements, each depending on one to
// four of 3 to 14 filters, and one or two of the filters failed fully
// (every dependent). When partial, one to three more fail partially (each
// dependent one time in two), each in the change log one time in two, and
// one or two failed edges land where the model may have none, to a filter
// it may not have: marking creates them.
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
// switch's model.
type fabricCase struct {
	seeds         int64
	faults, noise int
	onSwitch      bool
	build         func(*compile.Deployment) *risk.Model
}

// runWorkload checks every scenario of fc that marks an edge, each on a
// fresh build and on an overlay over one pristine build.
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
	if fc.onSwitch {
		most := -1
		for s, rules := range d.BySwitch {
			if n := len(rules); n > most || n == most && s < sw {
				sw, most = s, n
			}
		}
		idx = idx.OnSwitch(sw)
		candidates = idx.Objects()
		build = func() *risk.Model { return risk.BuildSwitchModel(d, sw) }
	}
	pristine := build()
	var out []results
	for seed := int64(1); seed <= fc.seeds; seed++ {
		for n := 1; n <= fc.faults; n++ {
			sc, err := workload.NewScenario(rand.New(rand.NewSource(seed)), candidates, n, fc.noise)
			if err != nil {
				t.Fatal(err)
			}
			// Both views mark the same missing rules through the pipeline's
			// augmentation, a controller view in ascending switch order.
			missing := sc.Missing(idx, rand.New(rand.NewSource(seed*1000)))
			mark := func(v risk.Marker) {
				if fc.onSwitch {
					risk.AugmentSwitchModel(v, missing[sw], d.Provenance)
					return
				}
				for _, s := range tp.Switches() {
					risk.AugmentControllerModelPatch(v, s, missing[s], d.Provenance).Apply(v)
				}
			}
			model, ov := build(), risk.NewOverlay(pristine)
			mark(model)
			mark(ov)
			if model.NumFailedEdges() > 0 { // a scenario can hit only undeployed objects
				out = append(out, check(t, fmt.Sprintf("seed %d, %d faults", seed, n), model, ov, sc.Changed))
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no scenario marked an edge")
	}
	return out
}
