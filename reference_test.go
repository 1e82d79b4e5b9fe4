package scout_test

import (
	"maps"
	"slices"
	"testing"
	"time"

	"scout"
	"scout/internal/compile"
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
	if st.Changes == nil {
		st.Changes, st.Faults = &scout.ChangeLog{}, &scout.FaultLog{}
	}
	d := st.Deployment
	oracle := localize.ChangeLogOracle{Log: st.Changes, Since: st.Now.Add(-24 * time.Hour)}
	ctrlModel, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
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
			own := risk.NewModel("switch", d.OnSwitch(sw))
			sr.Result = localize.Scout(risk.MarkSwitch(own, sw, check.MissingRules, d.Provenance).View(), oracle)
			risk.AugmentControllerModelPatch(ctrl, sw, check.MissingRules, d.Provenance).Apply(ctrl)
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

// dupState is the fabric's collected state with byte-equal clone switches,
// a supported input no generated workload produces: every other switch gets
// a twin 100,000 IDs up sharing its logical list, TCAM snapshot and
// footprint run, the twins' triplets appended to a clone of the footprint
// (every twin ID is above every fabric switch, so they still ascend). The
// fabric's own deployment is not mutated.
func dupState(_ testing.TB, f *scout.Fabric) scout.State {
	st, d := fabricState(f), f.Deployment()
	dup := &scout.Deployment{BySwitch: maps.Clone(d.BySwitch), Provenance: d.Provenance}
	fp := &dup.Footprint
	fp.Pairs, fp.Risks, fp.Keys = slices.Clone(d.Footprint.Pairs), slices.Clone(d.Footprint.Risks), slices.Clone(d.Footprint.Keys)
	for i, sw := range sortedIDs(st.TCAM) {
		if i%2 != 0 {
			continue
		}
		twin := sw + 100000
		dup.BySwitch[twin], st.TCAM[twin] = d.BySwitch[sw], st.TCAM[sw]
		run := d.OnSwitch(sw)
		for _, sp := range run.Pairs {
			fp.Pairs = append(fp.Pairs, compile.SwitchPair{Switch: twin, Pair: sp.Pair})
		}
		fp.Risks, fp.Keys = append(fp.Risks, run.Risks...), append(fp.Keys, run.Keys...)
	}
	st.Deployment = dup
	return st
}

// fabricState is the fabric's current collected state.
func fabricState(f *scout.Fabric) scout.State {
	return scout.State{
		Deployment: f.Deployment(),
		TCAM:       f.CollectAll(),
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
}

// expectedFolds derives a one-worker cold run's semantics-build counts
// from the state itself: the base freezes one root per distinct logical
// semantics fingerprint, and the single fork compiles the TCAM list of
// every switch no logical list warmed — a checker remembers logical lists
// only, so a twin's equal drifted list is compiled again.
func expectedFolds(st scout.State) (frozen, unwarmed int) {
	logicalSem := make(map[uint64]bool)
	for _, rules := range st.Deployment.BySwitch {
		logicalSem[equiv.SemanticsFingerprint(rules)] = true
	}
	for _, rules := range st.TCAM {
		if !logicalSem[equiv.SemanticsFingerprint(rules)] {
			unwarmed++
		}
	}
	return len(logicalSem), unwarmed
}

// TestOrchestrationMatchesReference holds a session through a new fault to
// refAnalyze's bytes, on the testbed, the small fabric and production
// x0.25: equalsCold ends every case on that comparison.
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
			fabric := func(t testing.TB) *scout.Fabric { return faultyFabricOf(t, tc.spec, tc.opts) }
			equalsCold(t, coldCase{fabric: fabric, workers: 2, steps: []step{{opEvict, 1, 0}}})
		})
	}
}
