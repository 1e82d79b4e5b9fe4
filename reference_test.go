package scout_test

import (
	"slices"
	"testing"
	"time"

	"scout"
	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/risk"
)

// refAnalyze is the pipeline of the paper's Figure 6 spelled serially, with
// none of the machinery the production path adds: a fresh checker per
// switch (an empty base's fork: no dedup, no cache), models built per call,
// one overlay each, no worker pool. Cold and warm analyses share one
// orchestration, so "warm bytes = cold bytes" only proves a replay equals a
// fresh check; this is what proves the orchestration.
func refAnalyze(t testing.TB, st scout.State) *scout.Report {
	t.Helper()
	d := st.Deployment
	oracle := localize.ChangeLogOracle{Log: st.Changes, Since: st.Now.Add(-24 * time.Hour)}
	ctrlModel := risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	ctrl := risk.NewOverlay(ctrlModel)
	rep := &scout.Report{Consistent: true}
	for _, sw := range sortedIDs(st.TCAM) {
		check, err := equiv.NewBaseWith(nil).NewChecker().Check(d.RulesFor(sw), st.TCAM[sw])
		if err != nil {
			t.Fatal(err)
		}
		sr := scout.SwitchReport{Switch: sw, Equivalent: check.Equivalent,
			MissingRules: check.MissingRules, ExtraRules: check.ExtraRules}
		if !check.Equivalent {
			view := risk.NewOverlay(risk.BuildSwitchModel(d, sw))
			risk.AugmentSwitchModel(view, check.MissingRules, d.Provenance)
			sr.Result = localize.Scout(view, oracle)
			risk.AugmentControllerModelPatch(ctrlModel, sw, check.MissingRules, d.Provenance).Apply(ctrl)
			rep.Consistent = false
			rep.TotalMissing += len(check.MissingRules)
		}
		rep.Switches = append(rep.Switches, sr)
	}
	if !rep.Consistent {
		rep.Controller = localize.Scout(ctrl, oracle)
		rep.Hypothesis = rep.Controller.Hypothesis
		rep.RootCauses = correlate.NewEngine(nil).Correlate(rep.Hypothesis, st.Changes, st.Faults)
	}
	return rep
}

// sortedIDs returns a map's object IDs in ascending order.
func sortedIDs[V any](m map[scout.ObjectID]V) []scout.ObjectID {
	ids := make([]scout.ObjectID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// switchesOf returns a deployed fabric's switches, ascending.
func switchesOf(f *scout.Fabric) []scout.ObjectID { return sortedIDs(f.Deployment().BySwitch) }

// deployedIDs returns the IDs of the objects of a kind that a fabric's
// deployed rules carry, ascending.
func deployedIDs(f *scout.Fabric, kind object.Kind) []scout.ObjectID {
	ids := make(map[scout.ObjectID]bool)
	for _, refs := range f.Deployment().Provenance {
		for _, ref := range refs {
			if ref.Kind == kind {
				ids[ref.ID] = true
			}
		}
	}
	return sortedIDs(ids)
}

// TestOrchestrationMatchesReference holds an event-driven session through
// a new fault to refAnalyze's bytes, on the testbed, the small fabric and
// production x0.25: equalsCold ends every case on that comparison.
func TestOrchestrationMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		spec scout.WorkloadSpec
		opts scout.FabricOptions
	}{
		{scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: 42}},
		{scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 42}},
		{eval.SimSpec(0.25), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17}},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			equalsCold(t, coldCase{
				fabric:  func(t testing.TB) *scout.Fabric { return faultyFabricOf(t, tc.spec, tc.opts) },
				entry:   viaEvents,
				workers: 2,
				steps:   []step{func(t *testing.T, r *coldRun) { removeOneRule(t, r.f, switchesOf(r.f)[1]) }},
			})
		})
	}
}
