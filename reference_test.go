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
	"scout/internal/oracle"
	"scout/internal/risk"
	"scout/internal/rule"
)

// refAnalyze is the pipeline of the paper's Figure 6 spelled serially, with
// none of the machinery the production path adds: a fresh checker per
// switch (an empty base's fork: no dedup, no cache, no check by class),
// models built per call, one overlay each, no worker pool. The checker
// encodes 16-bit IDs and reads an ID only by comparing it, so each switch's
// lists go to it renumbered densely (oracle.DenseIDs) and its rules come
// back as they were. Cold and warm analyses share one
// orchestration, so "warm bytes = cold bytes" only proves a replay equals a
// fresh check; this is what proves the orchestration.
func refAnalyze(t testing.TB, st scout.State) *scout.Report {
	t.Helper()
	if st.Changes == nil {
		st.Changes, st.Faults = &scout.ChangeLog{}, &scout.FaultLog{}
	}
	d := st.Deployment
	recent := localize.ChangeLogOracle{Log: st.Changes, Since: st.Now.Add(-24 * time.Hour)}
	ctrlModel, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := risk.NewOverlay(ctrlModel)
	rep := &scout.Report{Consistent: true}
	for _, sw := range sortedIDs(st.TCAM) {
		to, from := oracle.DenseIDs(d.RulesFor(sw), st.TCAM[sw])
		check, err := equiv.NewBaseWith().NewChecker().Check(oracle.Renumber(d.RulesFor(sw), to), oracle.Renumber(st.TCAM[sw], to))
		if err != nil {
			t.Fatal(err)
		}
		check.MissingRules, check.ExtraRules = oracle.Renumber(check.MissingRules, from), oracle.Renumber(check.ExtraRules, from)
		sr := scout.SwitchReport{Switch: sw, Equivalent: check.Equivalent,
			MissingRules: check.MissingRules, ExtraRules: check.ExtraRules}
		if !check.Equivalent {
			own := risk.NewModel("switch", d.OnSwitch(sw))
			sr.Result = localize.Scout(risk.MarkSwitch(own, sw, check.MissingRules, d.Provenance).View(), recent)
			risk.AugmentControllerModelPatch(ctrl, sw, check.MissingRules, d.Provenance).Apply(ctrl)
			rep.Consistent = false
			rep.TotalMissing += len(check.MissingRules)
		}
		rep.Switches = append(rep.Switches, sr)
	}
	if !rep.Consistent {
		rep.Controller = localize.Scout(ctrl, recent)
		rep.Hypothesis = rep.Controller.Hypothesis
		rep.RootCauses = correlate.Correlate(rep.Hypothesis, st.Changes, st.Faults)
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

// copiedState returns a state function: the fabric's collected state with
// every list a fresh copy of equal content, as a collector outside the
// simulator may hand it — a new Deployment whose every BySwitch list is a
// clone, and a clone of every TCAM list. Every other call also rebuilds
// each nil provenance of the first switch's logical list as an empty one,
// so consecutive runs differ there as rule.Equal does not tell apart. The
// fabric's own lists are not mutated.
func copiedState() func(testing.TB, *scout.Fabric) scout.State {
	rebuild := false
	return func(t testing.TB, f *scout.Fabric) scout.State {
		st, d := fabricState(f), f.Deployment()
		cp := &scout.Deployment{BySwitch: make(map[scout.ObjectID][]scout.Rule, len(d.BySwitch)), Provenance: d.Provenance, Footprint: d.Footprint}
		for sw, l := range d.BySwitch {
			cp.BySwitch[sw] = slices.Clone(l)
		}
		for sw, l := range st.TCAM {
			st.TCAM[sw] = slices.Clone(l)
		}
		st.Deployment = cp
		if rebuild = !rebuild; !rebuild {
			return st
		}
		rebuilt, first := 0, cp.BySwitch[switchesOf(f)[0]]
		for i := range first {
			if first[i].Provenance == nil {
				first[i].Provenance = []scout.ObjectRef{}
				rebuilt++
			}
		}
		if rebuilt == 0 {
			t.Fatal("the first switch's logical list has no rule without provenance")
		}
		return st
	}
}

// beyondUnionState is the fabric's collected state with three TCAM lists
// taken out of union form, as only a hand-built state can: the first
// switch's list led by an allow that wildcards its source, the second's by
// a deny of its first rule's match, and the third's with an allow after
// its default deny. The fabric's snapshots are not mutated.
func beyondUnionState(_ testing.TB, f *scout.Fabric) scout.State {
	st := fabricState(f)
	for i, sw := range sortedIDs(st.TCAM)[:3] {
		l := st.TCAM[sw]
		if len(l) == 0 {
			continue
		}
		r := scout.Rule{Match: l[0].Match, Action: rule.Allow, Priority: l[0].Priority}
		r.Match.Proto, r.Match.PortLo, r.Match.PortHi = rule.ProtoTCP, 9999, 9999
		switch i {
		case 0:
			r.Match.WildcardSrc = true
			l = append([]scout.Rule{r}, l...)
		case 1:
			r.Match, r.Action = l[0].Match, rule.Deny
			l = append([]scout.Rule{r}, l...)
		default:
			l = append(slices.Clone(l), r)
		}
		st.TCAM[sw] = l
	}
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
