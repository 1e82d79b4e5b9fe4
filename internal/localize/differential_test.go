package localize

// Differential gate for the compiled-plan engine: Scout/Score must return Results identical (reflect.DeepEqual, including Steps,
// Iterations, ChangeLogPicks, Unexplained) to the retained reference
// engine over randomized models, randomized partial-fault annotations,
// and workload-generated overlay scenarios — and the plan cache must
// compile once per pristine model revision, never on warm/overlay runs.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/workload"
)

// randomPartialModel is like randomAnnotatedModel but also marks partial
// faults (random subsets of a risk's dependents), producing unexplained
// leftovers for stage two.
func randomPartialModel(seed int64) (*risk.Model, object.Set) {
	rng := rand.New(rand.NewSource(seed))
	m := risk.NewModel("rand-partial")
	nElems := 4 + rng.Intn(40)
	nRisks := 3 + rng.Intn(12)
	els := make([]risk.ElementID, nElems)
	for i := range els {
		els[i] = m.EnsureElement(labelFor(i))
	}
	for i := range els {
		for r := 0; r < 1+rng.Intn(4); r++ {
			m.AddEdge(els[i], object.Filter(object.ID(rng.Intn(nRisks))))
		}
	}
	changed := make(object.Set)
	// Full faults.
	for r := 0; r < rng.Intn(3); r++ {
		ref := object.Filter(object.ID(rng.Intn(nRisks)))
		for _, el := range m.ElementsOf(ref) {
			m.MarkFailed(el, ref)
		}
	}
	// Partial faults, sometimes visible to the change oracle.
	for r := 0; r < 1+rng.Intn(3); r++ {
		ref := object.Filter(object.ID(rng.Intn(nRisks)))
		for _, el := range m.ElementsOf(ref) {
			if rng.Intn(2) == 0 {
				m.MarkFailed(el, ref)
			}
		}
		if rng.Intn(2) == 0 {
			changed.Add(ref)
		}
	}
	return m, changed
}

func assertEngineIdentity(t *testing.T, label string, v risk.View, oracle ChangeOracle) {
	t.Helper()
	pairs := []struct {
		name      string
		ref, plan *Result
	}{
		{"Scout", RefScout(v, oracle), Scout(v, oracle)},
		{"Scout/NoChanges", RefScout(v, NoChanges{}), Scout(v, NoChanges{})},
		{"Score-0.6", RefScore(v, 0.6), Score(v, 0.6)},
		{"Score-1.0", RefScore(v, 1.0), Score(v, 1.0)},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.ref, p.plan) {
			t.Fatalf("%s: %s differs between engines\nref:  %+v\nplan: %+v",
				label, p.name, p.ref, p.plan)
		}
	}
}

func TestDifferentialRandomModels(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		m, changed := randomPartialModel(seed)
		assertEngineIdentity(t, "model", m, SetOracle(changed))
	}
}

func TestDifferentialFigure5(t *testing.T) {
	m, refs := figure5Model(t)
	assertEngineIdentity(t, "figure5", m, SetOracle(object.NewSet(refs["C3"], refs["F3"])))
}

// TestDifferentialOverlays pins engine identity on overlay-backed views:
// workload fault scenarios applied to copy-on-write overlays over one
// pristine controller model, with the model itself built three times over
// (through the shim that once took a worker count; separate builds must
// feed identical plans).
func TestDifferentialOverlays(t *testing.T) {
	d, idx := interchangeEnv(t)
	candidates := idx.Objects()

	workerCounts := []int{1, 2, runtime.NumCPU()}
	var results []*Result
	for _, workers := range workerCounts {
		pristine := risk.BuildControllerModelParallel(
			d, risk.ControllerModelOptions{IncludeSwitchRisk: true}, workers)
		runs := 0
		var firstResults []*Result
		for seed := int64(1); seed <= 4; seed++ {
			for faults := 1; faults <= 5; faults++ {
				scRng := rand.New(rand.NewSource(seed))
				sc, err := workload.NewScenario(scRng, candidates, faults, 5)
				if err != nil {
					t.Fatal(err)
				}
				ov := risk.NewOverlay(pristine)
				workload.ApplyToControllerModel(ov, d, idx, sc, rand.New(rand.NewSource(seed*1000)))
				if ov.NumFailedEdges() == 0 {
					continue
				}
				runs++
				assertEngineIdentity(t, "overlay", ov, SetOracle(sc.Changed))
				firstResults = append(firstResults, Scout(ov, SetOracle(sc.Changed)))
			}
		}
		if runs == 0 {
			t.Fatal("no overlay scenario produced failures")
		}
		if results == nil {
			results = firstResults
		} else if !reflect.DeepEqual(results, firstResults) {
			t.Fatalf("workers=%d: Scout results differ from workers=%d build",
				workers, workerCounts[0])
		}
	}
}

// TestPlanCompileOnce pins the plan-reuse contract: one compile per
// pristine model revision, zero compiles for warm re-runs and for any
// number of overlays over the same base, and a recompile after mutation.
func TestPlanCompileOnce(t *testing.T) {
	m, _ := randomPartialModel(11)
	before := StatsSnapshot()
	Scout(m, NoChanges{})
	Score(m, 1.0)
	for i := 0; i < 5; i++ {
		ov := risk.NewOverlay(m)
		ov.MarkFailed(0, object.VRF(99))
		Scout(ov, NoChanges{})
	}
	d := StatsSnapshot().Delta(before)
	if d.PlanCompiles != 1 {
		t.Errorf("PlanCompiles = %d, want 1 (compile once, reuse everywhere)", d.PlanCompiles)
	}
	if d.PlanReuses != 6 {
		t.Errorf("PlanReuses = %d, want 6", d.PlanReuses)
	}

	// Mutating the model invalidates the cached plan.
	el := m.EnsureElement("fresh-element")
	m.MarkFailed(el, object.VRF(1))
	before = StatsSnapshot()
	assertEngineIdentity(t, "post-mutation", m, NoChanges{})
	if d := StatsSnapshot().Delta(before); d.PlanCompiles != 1 {
		t.Errorf("post-mutation PlanCompiles = %d, want exactly 1", d.PlanCompiles)
	}
}

// recordingOracle records the sequence of RecentlyChanged calls.
type recordingOracle struct {
	calls   []object.Ref
	changed object.Set
}

func (o *recordingOracle) RecentlyChanged(ref object.Ref) bool {
	o.calls = append(o.calls, ref)
	return o.changed.Has(ref)
}

// TestStageTwoOracleOrderDeterministic: both engines must consult the
// change oracle in the same deterministic sequence (ascending pending
// element, then ascending ref) — a counting or memoizing oracle sees
// identical call streams run over run and engine over engine.
func TestStageTwoOracleOrderDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		m, changed := randomPartialModel(seed)
		refOracle := &recordingOracle{changed: changed}
		planOracle := &recordingOracle{changed: changed}
		RefScout(m, refOracle)
		Scout(m, planOracle)
		if !reflect.DeepEqual(refOracle.calls, planOracle.calls) {
			t.Fatalf("seed=%d: oracle call sequences differ\nref:  %v\nplan: %v",
				seed, refOracle.calls, planOracle.calls)
		}
		repeat := &recordingOracle{changed: changed}
		Scout(m, repeat)
		if !reflect.DeepEqual(planOracle.calls, repeat.calls) {
			t.Fatalf("seed=%d: oracle call sequence not deterministic across runs", seed)
		}
	}
}
