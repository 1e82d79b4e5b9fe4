package scout_test

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"scout"
	"scout/internal/tcam"
)

// undeployed is the Figure 1 fabric before its first Deploy.
func undeployed(t testing.TB) *scout.Fabric {
	t.Helper()
	p := threeTierPolicy()
	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAnalyzeRequiresDeploy(t *testing.T) {
	if _, err := scout.NewAnalyzer().Analyze(undeployed(t)); err == nil {
		t.Error("Analyze before Deploy must fail")
	}
}

func TestAnalyzeWithProbes(t *testing.T) {
	f := threeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep := oneShot(t, f, scout.AnalyzerOptions{UseProbes: true})
	if rep.Consistent || !slices.Contains(rep.Hypothesis, scout.FilterRef(700)) {
		t.Errorf("probe mode must detect the missing rules, with filter:700 in the hypothesis %v", rep.Hypothesis)
	}
}

// switchReport returns sw's report from rep.
func switchReport(t *testing.T, rep *scout.Report, sw scout.ObjectID) scout.SwitchReport {
	t.Helper()
	for _, sr := range rep.Switches {
		if sr.Switch == sw {
			return sr
		}
	}
	t.Fatalf("no report for switch %d", sw)
	return scout.SwitchReport{}
}

// TestAnalyzeSwitchScoped: an inequivalent switch's report carries a
// localization on its own switch risk model, so its hypothesis names that
// switch's policy objects; a consistent switch's carries none.
func TestAnalyzeSwitchScoped(t *testing.T) {
	f := threeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().AnalyzeState(fabricState(f))
	if err != nil {
		t.Fatal(err)
	}
	// Filter 700 rules live on switches 2 and 3 only.
	if sr1 := switchReport(t, rep, 1); !sr1.Equivalent || sr1.Result != nil {
		t.Error("switch 1 must be consistent")
	}
	sr2 := switchReport(t, rep, 2)
	if sr2.Equivalent || sr2.Result == nil {
		t.Fatal("switch 2 must be inconsistent with a localization result")
	}
	if !slices.Contains(sr2.Result.Hypothesis, scout.FilterRef(700)) {
		t.Errorf("switch-scoped hypothesis %v must contain filter:700", sr2.Result.Hypothesis)
	}
}

// TestAnalyzeSwitchObservationSources builds switch reports from each
// observation source — a BDD check of the collected TCAM and dataplane
// probes — which share the report assembly but take different check paths.
func TestAnalyzeSwitchObservationSources(t *testing.T) {
	for _, opts := range []scout.AnalyzerOptions{
		{},
		{UseProbes: true},
	} {
		f := threeTier(t, 1)
		if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
			t.Fatal(err)
		}
		rep := oneShot(t, f, opts)
		if sr := switchReport(t, rep, 2); sr.Equivalent || len(sr.MissingRules) == 0 || sr.Result == nil {
			t.Errorf("opts %+v: switch 2 report = %+v, want missing rules and a localization", opts, sr)
		}
		if clean := switchReport(t, rep, 1); !clean.Equivalent || clean.Result != nil {
			t.Errorf("opts %+v: switch 1 must stay consistent", opts)
		}
	}
}

func TestAnalyzeDetectsCorruptionAsExtraRules(t *testing.T) {
	f := threeTier(t, 5)
	damaged, err := f.CorruptTCAM(2, 2, tcam.CorruptVRF)
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) == 0 {
		t.Fatal("corruption hit nothing")
	}
	rep := oneShot(t, f)
	if rep.Consistent {
		t.Fatal("corruption must break equivalence")
	}
	s2 := switchReport(t, rep, 2)
	if s2.Equivalent {
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
	f := threeTier(t, 11)
	evicted, err := f.EvictTCAM(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 {
		t.Fatal("nothing evicted")
	}
	rep := oneShot(t, f)
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
	f := threeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	rep := oneShot(t, f)
	data := marshalReport(t, rep)
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

// TestAnalyzerChangeWindow pins the 24 h change window from both sides. A
// partial fault on filter:80 (it spans S1, S2, S3) leaves stage one short of
// hit ratio 1, so only the change-log stage can pick the filter — and only
// while the injection's change entry is at most 24 h older than State.Now.
func TestAnalyzerChangeWindow(t *testing.T) {
	f := threeTier(t, 1)
	if _, err := f.InjectObjectFault(scout.FilterRef(80), 0.34); err != nil {
		t.Fatal(err)
	}
	changed := f.Now() // the injection's change-log entry
	analyze := func(now time.Time) *scout.Report {
		t.Helper()
		rep, err := scout.NewAnalyzer().AnalyzeState(scout.State{
			Deployment: f.Deployment(),
			TCAM:       f.CollectAll(),
			Changes:    f.ChangeLog(),
			Faults:     f.FaultLog(),
			Now:        now,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Consistent {
			t.Fatal("partial fault must be detected")
		}
		return rep
	}
	inside := analyze(changed.Add(24 * time.Hour))
	outside := analyze(changed.Add(24*time.Hour + time.Nanosecond))
	if !slices.Contains(inside.Controller.ChangeLogPicks, scout.FilterRef(80)) {
		t.Errorf("a change exactly 24 h old is recent: change-log picks %v, want filter:80", inside.Controller.ChangeLogPicks)
	}
	if len(outside.Controller.ChangeLogPicks) != 0 {
		t.Errorf("a change older than 24 h is not recent: change-log picks %v, want none", outside.Controller.ChangeLogPicks)
	}
	if len(outside.Controller.Unexplained) <= len(inside.Controller.Unexplained) {
		t.Errorf("leaving the window must leave observations unexplained: %d outside vs %d inside",
			len(outside.Controller.Unexplained), len(inside.Controller.Unexplained))
	}
}

func TestAnalyzeStateFromEpoch(t *testing.T) {
	// Post-incident forensics: snapshot state before and after a fault,
	// then analyze the historical epochs offline via AnalyzeState.
	f := threeTier(t, 1)
	collector := scout.NewCollector(f, 0)
	before := collector.Snapshot()

	if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
		t.Fatal(err)
	}
	after := collector.Snapshot()

	analyzer := scout.NewAnalyzer()
	// The earlier epoch is the fabric's state with that epoch's rules and
	// time.
	st := fabricState(f)
	st.TCAM, st.Now = before.TCAM, before.Time
	cleanRep, err := analyzer.AnalyzeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.Consistent {
		t.Error("pre-fault epoch must analyze consistent")
	}

	faultRep, err := analyzer.AnalyzeState(fabricState(f))
	if err != nil {
		t.Fatal(err)
	}
	if faultRep.Consistent || !slices.Contains(faultRep.Hypothesis, scout.FilterRef(700)) {
		t.Fatalf("post-fault epoch must analyze inconsistent, with filter:700 in the hypothesis %v", faultRep.Hypothesis)
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
	f := threeTier(t, 1)
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

func TestSummaryRendering(t *testing.T) {
	// Inconsistent + root cause path.
	f := threeTier(t, 1)
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
	rep := oneShot(t, f)
	s := rep.Summary()
	for _, want := range []string{"INCONSISTENT", "hypothesis", "root causes", "unreachable"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}

	// Inconsistent + silent fault path (no root cause matched).
	f2 := threeTier(t, 2)
	if _, err := f2.EvictTCAM(1, 1); err != nil {
		t.Fatal(err)
	}
	rep2 := oneShot(t, f2)
	if !strings.Contains(rep2.Summary(), "silent fault") {
		t.Errorf("silent-fault summary wrong:\n%s", rep2.Summary())
	}
}
