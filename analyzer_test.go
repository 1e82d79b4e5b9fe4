package scout_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scout"
)

func deployedThreeTier(t *testing.T, seed int64) *scout.Fabric {
	t.Helper()
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAnalyzeRequiresDeploy(t *testing.T) {
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scout.NewAnalyzer().Analyze(f); err == nil {
		t.Error("Analyze before Deploy must fail")
	}
	if _, err := scout.NewAnalyzer().AnalyzeSwitch(f, 1); err == nil {
		t.Error("AnalyzeSwitch before Deploy must fail")
	}
}

func TestAnalyzeWithProbes(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseProbes: true}).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("probe mode must detect the missing rules")
	}
	found := false
	for _, ref := range rep.Hypothesis {
		if ref == scout.FilterRef(700) {
			found = true
		}
	}
	if !found {
		t.Errorf("probe-mode hypothesis %v must contain filter:700", rep.Hypothesis)
	}
}

func TestAnalyzeSwitchScoped(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	// Filter 700 rules live on switches 2 and 3 only.
	sr1, err := scout.NewAnalyzer().AnalyzeSwitch(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sr1.Equivalent || sr1.Result != nil {
		t.Error("switch 1 must be consistent")
	}
	sr2, err := scout.NewAnalyzer().AnalyzeSwitch(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Equivalent || sr2.Result == nil {
		t.Fatal("switch 2 must be inconsistent with a localization result")
	}
	found := false
	for _, ref := range sr2.Result.Hypothesis {
		if ref == scout.FilterRef(700) {
			found = true
		}
	}
	if !found {
		t.Errorf("switch-scoped hypothesis %v must contain filter:700", sr2.Result.Hypothesis)
	}
	if _, err := scout.NewAnalyzer().AnalyzeSwitch(f, 99); err == nil {
		t.Error("unknown switch must fail")
	}
}

// TestAnalyzeSwitchRequiresDeploy pins the event-driven single-switch
// mode's precondition: no compiled desired state, no check.
func TestAnalyzeSwitchRequiresDeploy(t *testing.T) {
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scout.NewAnalyzer().AnalyzeSwitch(f, 1); err == nil {
		t.Error("AnalyzeSwitch before Deploy must fail")
	}
}

// TestAnalyzeSwitchObservationSources runs the single-switch mode through
// each observation source — a BDD check of the collected TCAM and
// dataplane probes — which share the report assembly but take different
// check paths.
func TestAnalyzeSwitchObservationSources(t *testing.T) {
	for _, opts := range []scout.AnalyzerOptions{
		{},
		{UseProbes: true},
	} {
		f := deployedThreeTier(t, 1)
		if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
			t.Fatal(err)
		}
		sr, err := scout.NewAnalyzer(opts).AnalyzeSwitch(f, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Equivalent || len(sr.MissingRules) == 0 || sr.Result == nil {
			t.Errorf("opts %+v: switch 2 report = %+v, want missing rules and a localization", opts, sr)
		}
		clean, err := scout.NewAnalyzer(opts).AnalyzeSwitch(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !clean.Equivalent || clean.Result != nil {
			t.Errorf("opts %+v: switch 1 must stay consistent", opts)
		}
		// Probing an unknown switch surfaces the fabric error too.
		if _, err := scout.NewAnalyzer(opts).AnalyzeSwitch(f, 99); err == nil {
			t.Errorf("opts %+v: unknown switch must fail", opts)
		}
	}
}

func TestAnalyzeDetectsCorruptionAsExtraRules(t *testing.T) {
	f := deployedThreeTier(t, 5)
	damaged, err := f.CorruptTCAM(2, 2, scout.CorruptVRF)
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) == 0 {
		t.Skip("corruption hit nothing")
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("corruption must break equivalence")
	}
	var s2 *scout.SwitchReport
	for i := range rep.Switches {
		if rep.Switches[i].Switch == 2 {
			s2 = &rep.Switches[i]
		}
	}
	if s2 == nil || s2.Equivalent {
		t.Fatal("switch 2 must be flagged")
	}
	if len(s2.MissingRules) == 0 {
		t.Error("corrupted rules must appear missing (intended behaviour absent)")
	}
	if len(s2.ExtraRules) == 0 {
		t.Error("corrupted rules must appear extra (bogus behaviour present)")
	}
}

func TestAnalyzeEvictionLocalized(t *testing.T) {
	f := deployedThreeTier(t, 11)
	evicted, err := f.EvictTCAM(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 {
		t.Fatal("nothing evicted")
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("eviction must be detected")
	}
	// Only switch 3 is affected.
	for _, sr := range rep.Switches {
		if sr.Switch == 3 && sr.Equivalent {
			t.Error("switch 3 must be inconsistent")
		}
		if sr.Switch != 3 && !sr.Equivalent {
			t.Errorf("switch %d must stay consistent", sr.Switch)
		}
	}
}

func TestReportJSON(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"Consistent":false`, `"Hypothesis"`, `"elapsedMillis"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s[:200])
		}
	}
	// Round-trippable into a generic map (schema sanity).
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["Switches"]; !ok {
		t.Error("JSON must carry per-switch reports")
	}
}

func TestAnalyzerChangeWindow(t *testing.T) {
	f := deployedThreeTier(t, 1)
	// Partial fault: stage 1 cannot reach hit ratio 1 for filter:80 (it
	// spans S1, S2, S3); the change-log stage must pick it up — unless
	// the window excludes the change.
	if _, err := f.InjectObjectFault(scout.FilterRef(80), 0.34); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{ChangeWindow: 24 * time.Hour}).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("partial fault must be detected")
	}
	// A 1ns window excludes the injection-time change entry, so stage 2
	// has nothing to work with: either fewer objects or unexplained
	// observations remain.
	tiny, err := scout.NewAnalyzer(scout.AnalyzerOptions{ChangeWindow: time.Nanosecond}).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny.Controller.Unexplained) < len(rep.Controller.Unexplained) {
		t.Errorf("shrinking the window cannot explain more: %d vs %d",
			len(tiny.Controller.Unexplained), len(rep.Controller.Unexplained))
	}
}

func TestAnalyzerIncludeSwitchRiskOff(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if err := f.Disconnect(2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilter(scout.Filter{ID: 443, Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 443),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(202, 443); err != nil {
		t.Fatal(err)
	}
	off := false
	rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{IncludeSwitchRisk: &off}).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range rep.Hypothesis {
		if ref.Kind == scout.KindSwitch {
			t.Errorf("switch risks disabled but hypothesis has %v", ref)
		}
	}
}

func TestAnalyzeStateFromEpoch(t *testing.T) {
	// Post-incident forensics: snapshot state before and after a fault,
	// then analyze the historical epochs offline via AnalyzeState.
	f := deployedThreeTier(t, 1)
	collector := scout.NewCollector(f, 0)
	before := collector.Snapshot()

	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	after := collector.Snapshot()

	analyzer := scout.NewAnalyzer()
	cleanRep, err := analyzer.AnalyzeState(scout.State{
		Deployment: f.Deployment(),
		TCAM:       before.TCAM,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        before.Time,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.Consistent {
		t.Error("pre-fault epoch must analyze consistent")
	}

	faultRep, err := analyzer.AnalyzeState(scout.State{
		Deployment: f.Deployment(),
		TCAM:       after.TCAM,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        after.Time,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faultRep.Consistent {
		t.Fatal("post-fault epoch must analyze inconsistent")
	}
	found := false
	for _, ref := range faultRep.Hypothesis {
		if ref == scout.FilterRef(700) {
			found = true
		}
	}
	if !found {
		t.Errorf("epoch hypothesis %v must contain filter:700", faultRep.Hypothesis)
	}

	// The epoch diff pinpoints exactly the removed rules.
	deltas := scout.DiffEpochs(before, after)
	removed := 0
	for _, d := range deltas {
		removed += len(d.Removed)
		if len(d.Added) != 0 {
			t.Errorf("switch %d gained rules unexpectedly", d.Switch)
		}
	}
	if removed != faultRep.TotalMissing {
		t.Errorf("epoch diff removed %d rules, checker reported %d missing", removed, faultRep.TotalMissing)
	}
}

func TestAnalyzeStateNilLogs(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().AnalyzeState(scout.State{
		Deployment: f.Deployment(),
		TCAM:       f.CollectAll(),
		Now:        f.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Error("fault must be detected even without logs")
	}
	if _, err := scout.NewAnalyzer().AnalyzeState(scout.State{}); err == nil {
		t.Error("state without deployment must fail")
	}
}

func TestMaxCoverageBaselineTradesPrecisionForRecall(t *testing.T) {
	f := deployedThreeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Deployment()
	model := scout.BuildControllerRiskModel(d, scout.ControllerModelOptions{IncludeSwitchRisk: true})
	for _, sr := range rep.Switches {
		if !sr.Equivalent {
			scout.AugmentControllerRiskModel(model, sr.Switch, sr.MissingRules, d.Provenance)
		}
	}
	res := scout.LocalizeMaxCoverage(model)
	if len(res.Unexplained) != 0 {
		t.Error("max coverage must explain every observation")
	}
	if len(res.Hypothesis) == 0 {
		t.Error("hypothesis empty")
	}
}

func TestSummaryRendering(t *testing.T) {
	// Inconsistent + root cause path.
	f := deployedThreeTier(t, 1)
	if err := f.Disconnect(2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilter(scout.Filter{ID: 443, Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 443),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(202, 443); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"INCONSISTENT", "hypothesis", "root causes", "unreachable"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}

	// Inconsistent + silent fault path (no root cause matched).
	f2 := deployedThreeTier(t, 2)
	if _, err := f2.EvictTCAM(1, 1); err != nil {
		t.Fatal(err)
	}
	rep2, err := scout.NewAnalyzer().Analyze(f2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.Summary(), "silent fault") {
		t.Errorf("silent-fault summary wrong:\n%s", rep2.Summary())
	}
}
