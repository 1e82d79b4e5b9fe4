package scout_test

// The paper's running example (Figure 1) through the pipeline: most tests
// are a case of the runner (equalscold_test.go) on the three-tier fabric,
// with its faults taken before the baseline, and assert what the report
// says about them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"scout"
	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/oracle"
)

// threeTier deploys the paper's running example (Figure 1): a 3-tier web
// service with Web, App, and DB EPGs on three switches.
func threeTier(t testing.TB, seed int64) *scout.Fabric {
	t.Helper()
	p := oracle.ThreeTier()
	return deployed(t, p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: seed})
}

// undeployed is the Figure 1 fabric before its first Deploy.
func undeployed(t testing.TB) *scout.Fabric {
	t.Helper()
	p := oracle.ThreeTier()
	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Faults of the three-tier fabric, as steps. Its switches are 1, 2 and 3,
// its filters 80 and 700 (newest first: 700 is 0) and its contracts 201 and
// 202.
var (
	filter700Lost = step{opFault, 0, 0}
	// Switch 2 goes dark, then misses a new filter of contract 202.
	unresponsive = []step{{opLink, 1, 0}, {opAddFilter, 1, 0}}
)

// threeTierCase runs c on the three-tier fabric at seed 1 after faults and
// returns its report.
func threeTierCase(t *testing.T, c coldCase, faults ...step) *scout.Report {
	t.Helper()
	c.fabric = func(t testing.TB) *scout.Fabric {
		f := threeTier(t, 1)
		mutate(t, f, faults)
		return f
	}
	c.clean = len(faults) == 0
	return equalsCold(t, c).last
}

// oneShot is a one-shot analysis of the fabric.
func oneShot(t testing.TB, f *scout.Fabric, opts ...scout.AnalyzerOptions) *scout.Report {
	t.Helper()
	return mustReport(t, func() (*scout.Report, error) { return scout.NewAnalyzer(opts...).Analyze(f) })
}

// newSession is scout.NewSession, failing t on its error.
func newSession(t testing.TB, f *scout.Fabric, opts ...scout.AnalyzerOptions) *scout.Session {
	t.Helper()
	sess, err := scout.NewSession(f, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// warmStore opens the warm store at dir.
func warmStore(t testing.TB, dir string) *scout.WarmStore {
	t.Helper()
	ws, err := scout.OpenWarmStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// mustReport returns the report of analyze, failing t on its error.
func mustReport(t testing.TB, analyze func() (*scout.Report, error)) *scout.Report {
	t.Helper()
	rep, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// switchReport returns sw's report from rep.
func switchReport(t *testing.T, rep *scout.Report, sw scout.ObjectID) scout.SwitchReport {
	t.Helper()
	i := slices.IndexFunc(rep.Switches, func(sr scout.SwitchReport) bool { return sr.Switch == sw })
	if i < 0 {
		t.Fatalf("no report for switch %d", sw)
	}
	return rep.Switches[i]
}

func TestAnalyzeRequiresDeploy(t *testing.T) {
	refuses(t, "undeployed", func() (*scout.Report, error) { return scout.NewAnalyzer().Analyze(undeployed(t)) })
}

func TestAnalyzeConsistentFabric(t *testing.T) {
	if rep := threeTierCase(t, coldCase{}); !strings.Contains(rep.Summary(), "consistent") {
		t.Errorf("summary should mention consistency: %q", rep.Summary())
	}
}

func TestAnalyzeLocalizesEvictedFilter(t *testing.T) {
	if rep := threeTierCase(t, coldCase{}, filter700Lost); !slices.Contains(rep.Hypothesis, scout.FilterRef(700)) {
		t.Errorf("hypothesis %v should contain filter:700", rep.Hypothesis)
	}
}

// TestAnalyzeSwitchScoped: an inequivalent switch's report carries a
// localization on its own switch risk model, so its hypothesis names that
// switch's policy objects; a consistent switch's carries none. Filter 700
// rules live on switches 2 and 3 only.
func TestAnalyzeSwitchScoped(t *testing.T) {
	rep := threeTierCase(t, coldCase{entry: viaState}, filter700Lost)
	if sr1, sr2 := switchReport(t, rep, 1), switchReport(t, rep, 2); sr1.Result != nil || sr2.Result == nil || !slices.Contains(sr2.Result.Hypothesis, scout.FilterRef(700)) {
		t.Errorf("switch 1 localized %+v, switch 2 %+v; want nothing, and filter:700", sr1.Result, sr2.Result)
	}
}

// TestAnalyzeSwitchObservationSources builds switch reports from the one
// observation source, a check of the collected TCAM, in a session that
// holds the warm store's base and in one that holds none.
func TestAnalyzeSwitchObservationSources(t *testing.T) {
	for _, noStore := range []bool{false, true} {
		rep := threeTierCase(t, coldCase{noStore: noStore}, filter700Lost)
		if sr := switchReport(t, rep, 2); sr.Equivalent || len(sr.MissingRules) == 0 || sr.Result == nil {
			t.Errorf("%s: switch 2 report = %+v, want missing rules and a localization", modes[noStore], sr)
		}
		if clean := switchReport(t, rep, 1); !clean.Equivalent || clean.Result != nil {
			t.Errorf("%s: switch 1 must stay consistent", modes[noStore])
		}
	}
}

// TestAnalyzeDetectsCorruptionAsExtraRules: two rules of switch 2 with a
// corrupted VRF are missing (intended behaviour absent) and extra (bogus
// behaviour present).
func TestAnalyzeDetectsCorruptionAsExtraRules(t *testing.T) {
	if s2 := switchReport(t, threeTierCase(t, coldCase{}, step{opCorrupt, 1, 4}), 2); s2.Equivalent || len(s2.MissingRules) == 0 || len(s2.ExtraRules) == 0 {
		t.Errorf("switch 2: %+v, want it flagged with missing and extra rules", s2)
	}
}

func TestAnalyzeEvictionLocalized(t *testing.T) {
	for _, sr := range threeTierCase(t, coldCase{}, step{opEvict, 2, 1}).Switches {
		if sr.Equivalent != (sr.Switch != 3) {
			t.Errorf("switch %d equivalent=%v; only switch 3 lost rules", sr.Switch, sr.Equivalent)
		}
	}
}

func TestReportJSON(t *testing.T) {
	data, err := json.Marshal(threeTierCase(t, coldCase{}, filter700Lost))
	var m map[string]any
	if err = errors.Join(err, json.Unmarshal(data, &m)); err != nil || m["Consistent"] != false || m["Hypothesis"] == nil || m["Switches"] == nil || m["elapsedMillis"] == nil {
		t.Errorf("JSON lacks the verdict, hypothesis, switch reports or elapsed time (%v):\n%.200s", err, data)
	}
}

// TestAnalyzerChangeWindow pins the 24 h change window from both sides. A
// partial fault on filter:80 (it spans S1, S2, S3) leaves stage one short of
// hit ratio 1, so only the change-log stage can pick the filter — and only
// while the injection's change entry is at most 24 h older than State.Now.
func TestAnalyzerChangeWindow(t *testing.T) {
	at := func(after time.Duration) coldCase {
		return coldCase{entry: viaState, state: func(_ testing.TB, f *scout.Fabric) scout.State {
			st := fabricState(f)
			st.Now = st.Now.Add(after)
			return st
		}}
	}
	partial := step{opFault, 1, 2}
	inside, outside := threeTierCase(t, at(24*time.Hour), partial), threeTierCase(t, at(24*time.Hour+time.Nanosecond), partial)
	if !slices.Contains(inside.Controller.ChangeLogPicks, scout.FilterRef(80)) {
		t.Errorf("a change exactly 24 h old is recent: change-log picks %v, want filter:80", inside.Controller.ChangeLogPicks)
	}
	if len(outside.Controller.ChangeLogPicks) != 0 || len(outside.Controller.Unexplained) <= len(inside.Controller.Unexplained) {
		t.Errorf("a change older than 24 h is not recent: change-log picks %v, and %d observations unexplained outside vs %d inside",
			outside.Controller.ChangeLogPicks, len(outside.Controller.Unexplained), len(inside.Controller.Unexplained))
	}
}

// TestAnalyzeStateFromEpoch: post-incident forensics. An epoch collected
// before a fault analyzes consistent offline, and its diff with one
// collected after names exactly the rules the fault's analysis misses.
func TestAnalyzeStateFromEpoch(t *testing.T) {
	f := threeTier(t, 1)
	collector := scout.NewCollector(f, 0)
	before := collector.Snapshot()
	mutate(t, f, []step{filter700Lost})
	st, removed, added := fabricState(f), 0, 0
	st.TCAM, st.Now = before.TCAM, before.Time
	for _, d := range scout.DiffEpochs(before, collector.Snapshot()) {
		removed, added = removed+len(d.Removed), added+len(d.Added)
	}
	if rep, err := scout.NewAnalyzer().AnalyzeState(st); err != nil || !rep.Consistent {
		t.Errorf("the pre-fault epoch must analyze consistent (%v)", err)
	}
	if want := oneShot(t, f).TotalMissing; removed != want || added != 0 {
		t.Errorf("the epochs' diff removes %d rules and adds %d, want %d and none", removed, added, want)
	}
}

// TestAnalyzeStateNilLogs: a state without logs still analyzes, and one
// without a deployment is refused.
func TestAnalyzeStateNilLogs(t *testing.T) {
	threeTierCase(t, coldCase{entry: viaState, state: func(_ testing.TB, f *scout.Fabric) scout.State {
		return scout.State{Deployment: f.Deployment(), TCAM: f.CollectAll(), Now: f.Now()}
	}}, filter700Lost)
	if _, err := scout.NewAnalyzer().AnalyzeState(scout.State{}); err == nil {
		t.Error("state without deployment must fail")
	}
}

// TestAnalyzeStateRefusesBadFootprint: a hand-filled footprint whose
// triplets do not strictly ascend, or whose risk or key lists do not align
// with them, is refused with an error before any work, not left to panic
// in a risk-model build; one whose risk list names a ref twice (which would
// keep every hit ratio below 1) or a switch (the model adds each triplet's
// own) is refused when the risk model is built. A warm session handed any
// of them, on new content, keeps its counters and its store directory as
// they were, and its next good run equals a cold one.
func TestAnalyzeStateRefusesBadFootprint(t *testing.T) {
	harms := map[string]func(fp *compile.Footprint){
		"unsorted pairs": func(fp *compile.Footprint) {
			fp.Pairs[0], fp.Pairs[1] = fp.Pairs[1], fp.Pairs[0]
		},
		"a duplicate triplet": func(fp *compile.Footprint) {
			fp.Pairs[1], fp.Risks[1], fp.Keys[1] = fp.Pairs[0], fp.Risks[0], fp.Keys[0]
		},
		"risks shorter than pairs": func(fp *compile.Footprint) { fp.Risks = fp.Risks[1:] },
		"keys shorter than pairs":  func(fp *compile.Footprint) { fp.Keys = fp.Keys[1:] },
		"a repeated risk": func(fp *compile.Footprint) {
			for i, refs := range fp.Risks {
				fp.Risks[i] = append(slices.Clone(refs), refs...)
			}
		},
		"a switch risk": func(fp *compile.Footprint) {
			fp.Risks[0] = append(slices.Clone(fp.Risks[0]), object.Switch(fp.Pairs[0].Switch))
		},
	}
	// harmed is f's state with its footprint harmed.
	harmed := func(f *scout.Fabric, harm func(fp *compile.Footprint)) scout.State {
		dep := *f.Deployment()
		fp := &dep.Footprint
		fp.Pairs, fp.Risks, fp.Keys = slices.Clone(fp.Pairs), slices.Clone(fp.Risks), slices.Clone(fp.Keys)
		harm(fp)
		st := fabricState(f)
		st.Deployment = &dep
		return st
	}
	refused := func(name string, rep *scout.Report, err error) {
		if err == nil || rep != nil || !strings.Contains(err.Error(), "footprint") {
			t.Errorf("%s: AnalyzeState returned %v, %v; want a footprint error", name, rep, err)
		}
	}

	f := threeTier(t, 1)
	for name, harm := range harms {
		rep, err := scout.NewAnalyzer().AnalyzeState(harmed(f, harm))
		refused(name, rep, err)
	}

	dir := t.TempDir()
	sess := newSession(t, f, scout.AnalyzerOptions{WarmStore: warmStore(t, dir)})
	mustReport(t, sess.Analyze)
	mutate(t, f, []step{{opAddFilter, 1, 0}})
	stats, img := sess.Stats(), dirImage(t, dir)
	for name, harm := range harms {
		rep, err := sess.AnalyzeState(harmed(f, harm))
		refused("warm session, "+name, rep, err)
		if got := sess.Stats(); got != stats {
			t.Errorf("warm session, %s: stats moved from %+v to %+v", name, stats, got)
		}
		if got := dirImage(t, dir); !maps.Equal(got, img) {
			t.Errorf("warm session, %s: the store directory changed", name)
		}
	}
	warm := mustReport(t, func() (*scout.Report, error) { return sess.AnalyzeState(fabricState(f)) })
	cold := mustReport(t, func() (*scout.Report, error) { return scout.NewAnalyzer().AnalyzeState(fabricState(f)) })
	if w, c := marshalReport(t, warm), marshalReport(t, cold); !bytes.Equal(w, c) {
		t.Errorf("warm session after the refusals:\n%s\nwant the cold report:\n%s", w, c)
	}
	if got := sess.Stats(); got.BaseRebuilds != stats.BaseRebuilds+1 || got.Runs != stats.Runs+1 {
		t.Errorf("the good run after the refusals built %d bases in %d runs, want 1 in 1",
			got.BaseRebuilds-stats.BaseRebuilds, got.Runs-stats.Runs)
	}
}

// TestAnalyzeUnresponsiveSwitch: only the dark switch misses the new
// filter, and the top root cause names it unresponsive.
func TestAnalyzeUnresponsiveSwitch(t *testing.T) {
	rep := threeTierCase(t, coldCase{}, unresponsive...)
	for _, sr := range rep.Switches {
		if sr.Equivalent != (sr.Switch != 2) {
			t.Errorf("switch %d equivalent=%v; only switch 2 missed the filter", sr.Switch, sr.Equivalent)
		}
	}
	if rc := rep.RootCauses.RootCauses; len(rc) == 0 || rc[0].Signature != "unresponsive-switch" || rc[0].Switch != 2 {
		t.Errorf("root causes %+v, want unresponsive-switch on 2 first", rc)
	}
}

func TestSummaryRendering(t *testing.T) {
	s := threeTierCase(t, coldCase{}, unresponsive...).Summary()
	for _, want := range []string{"INCONSISTENT", "hypothesis", "root causes", "unreachable"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if s := threeTierCase(t, coldCase{}, step{opEvict, 0, 1}).Summary(); !strings.Contains(s, "silent fault") {
		t.Errorf("silent-fault summary wrong:\n%s", s)
	}
}

// TestPipelineNeverWritesProvenance guards the contract every layer relies
// on since rules are shared, not copied (rule.Rule): no rule's provenance
// slice is written after the compiler made it, which the runner checks at
// the end of every case, here after the tour. The compiler shares a slice
// between the rules of one binding and filter, so a write would show in all.
func TestPipelineNeverWritesProvenance(t *testing.T) {
	t.Parallel()
	r, holders, shared := equalsCold(t, coldCase{steps: tour, workers: 2}), make(map[*scout.ObjectRef]bool), false
	for _, h := range r.held {
		if len(h.orig) > 0 {
			shared = shared || holders[&h.orig[0]]
			holders[&h.orig[0]] = true
		}
	}
	if !shared {
		t.Fatal("no two logical rules share a provenance slice; the case is vacuous")
	}
}
