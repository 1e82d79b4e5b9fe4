package scout_test

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"scout"
	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/localize"
	"scout/internal/risk"
)

// refAnalyze is the pipeline of the paper's Figure 6 spelled serially, with
// none of the machinery the production path adds: a fresh checker per
// switch (no base, no dedup, no cache), models built per call, one overlay
// each, no worker pool. Cold and warm analyses share one orchestration, so
// "warm bytes = cold bytes" only proves a replay equals a fresh check; this
// is what proves the orchestration.
func refAnalyze(t testing.TB, st scout.State) *scout.Report {
	t.Helper()
	d := st.Deployment
	oracle := localize.ChangeLogOracle{Log: st.Changes, Since: st.Now.Add(-24 * time.Hour)}
	ctrlModel := risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	ctrl := risk.NewOverlay(ctrlModel)
	rep := &scout.Report{Consistent: true}
	for _, sw := range sortedIDs(st.TCAM) {
		check, err := equiv.NewChecker().Check(d.RulesFor(sw), st.TCAM[sw])
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

// sortedIDs returns the collected switches in ascending order.
func sortedIDs(tcam map[scout.ObjectID][]scout.Rule) []scout.ObjectID {
	ids := make([]scout.ObjectID, 0, len(tcam))
	for sw := range tcam {
		ids = append(ids, sw)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestOrchestrationMatchesReference holds the three ways into the one
// orchestration — a one-shot on collected state, a session's replaying
// second epoch, and an event refresh after a new fault — to refAnalyze's
// bytes, on the testbed, the small fabric and production x0.25.
func TestOrchestrationMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		spec scout.WorkloadSpec
		opts scout.FabricOptions
	}{
		{scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: 42}},
		{scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 42}},
		{eval.SimSpec(0.25), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17}},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			f := faultyFabricOf(t, tc.spec, tc.opts)
			opts := scout.AnalyzerOptions{Workers: 2}
			same := func(label string, got *scout.Report, st scout.State) {
				t.Helper()
				if got.Consistent {
					t.Fatalf("%s: the faulty fabric analyzed consistent; the comparison is vacuous", label)
				}
				if !bytes.Equal(marshalReport(t, got), marshalReport(t, refAnalyze(t, st))) {
					t.Errorf("%s differs from the serial reference pipeline", label)
				}
			}

			st := fabricState(f)
			cold, err := scout.NewAnalyzer(opts).AnalyzeState(st)
			if err != nil {
				t.Fatal(err)
			}
			same("Analyzer.AnalyzeState", cold, st)

			sess, err := scout.NewSession(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			collector := scout.NewCollector(f, 2)
			if _, err := sess.AnalyzeEpoch(collector.Snapshot()); err != nil {
				t.Fatal(err)
			}
			e2 := collector.Snapshot()
			warm, err := sess.AnalyzeEpoch(e2)
			if err != nil {
				t.Fatal(err)
			}
			if got := sess.Stats(); got.Replayed != len(e2.TCAM) {
				t.Fatalf("second epoch replayed %d of %d switches", got.Replayed, len(e2.TCAM))
			}
			same("second-run Session.AnalyzeEpoch", warm, stateFromEpoch(f, e2))

			sw := f.Topology().Switches()[1]
			removeOneRule(t, f, sw)
			refreshed, err := sess.ApplyEvents(scout.EventBatch{Switches: []scout.ObjectID{sw}})
			if err != nil {
				t.Fatal(err)
			}
			if got := sess.Stats(); got.EventSwitchesRead != 1 {
				t.Fatalf("event refresh re-read %d switches, want 1", got.EventSwitchesRead)
			}
			same("post-fault Session.ApplyEvents", refreshed, fabricState(f))
		})
	}
}
