package scout_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"scout"
	"scout/internal/eval"
	"scout/internal/object"
)

// marshalReport serializes a report with the wall-clock field zeroed so
// byte comparison sees only pipeline output.
func marshalReport(t testing.TB, rep *scout.Report) []byte {
	t.Helper()
	rep.Elapsed = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// brokenSwitches counts the report's inequivalent switches.
func brokenSwitches(rep *scout.Report) int {
	n := 0
	for _, sr := range rep.Switches {
		if !sr.Equivalent {
			n++
		}
	}
	return n
}

// switchBroken reports whether the report holds sw as inequivalent.
func switchBroken(rep *scout.Report, sw scout.ObjectID) bool {
	for _, sr := range rep.Switches {
		if sr.Switch == sw {
			return !sr.Equivalent
		}
	}
	return false
}

// removeOneRule deletes the highest-priority TCAM rule of sw (an allow
// rule on whitelist fabrics, so the switch becomes inequivalent), emits the
// TCAM-change event the fabric's own writes emit, and returns the rule.
func removeOneRule(t *testing.T, f *scout.Fabric, sw scout.ObjectID) scout.Rule {
	t.Helper()
	rules, err := f.CollectTCAM(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatalf("switch %d has an empty TCAM", sw)
	}
	s, err := f.Switch(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !s.TCAM().Remove(rules[0].Key()) {
		t.Fatalf("switch %d: failed to remove %s", sw, rules[0])
	}
	f.EventLog().Append(f.Now(), scout.EventTCAMChange, sw, "rule removed")
	return rules[0]
}

// rolloutFilter is the filter rollout adds.
const rolloutFilter = 64123

// rollout adds a filter to the policy and attaches it to the lowest
// deployed contract, which it returns: the logical lists of every switch
// that contract reaches change.
func rollout(t testing.TB, f *scout.Fabric) (contract scout.ObjectID) {
	t.Helper()
	if err := f.AddFilter(scout.Filter{ID: rolloutFilter, Name: "rollout", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, rolloutFilter),
	}}); err != nil {
		t.Fatal(err)
	}
	contract = deployedIDs(f, object.KindContract)[0]
	if err := f.AddFilterToContract(contract, rolloutFilter); err != nil {
		t.Fatal(err)
	}
	return contract
}

// TestSessionIncrementalSingleSwitch: an epoch after one switch lost a rule
// re-checks that switch alone, and so does a second fault on it once it is
// broken. The cold run compiles one localization plan for the controller
// and one per broken switch; a replay and the second fault compile none,
// since the models they localize on already carry one.
func TestSessionIncrementalSingleSwitch(t *testing.T) {
	var plans int // PlanCompiles when the previous step ran
	record := func(_ *testing.T, r *coldRun) { plans = r.sess.Stats().PlanCompiles }
	remove := func(t *testing.T, r *coldRun) {
		sw, st := switchesOf(r.f)[1], r.sess.Stats()
		if r.round == 1 && st.PlanCompiles != 1+brokenSwitches(r.last) {
			t.Errorf("the cold run compiled %d plans, want 1 + %d broken switches", st.PlanCompiles, brokenSwitches(r.last))
		}
		if r.round > 1 && (!switchBroken(r.last, sw) || st.PlanCompiles != plans) {
			t.Fatalf("switch %d broken: %v; the replay compiled %d plans, want 0", sw, switchBroken(r.last, sw), st.PlanCompiles-plans)
		}
		record(t, r)
		removeOneRule(t, r.f, sw)
	}
	r := equalsCold(t, coldCase{fabric: seeded(7), entry: viaEpoch, workers: 2, steps: []step{remove, record, remove}})
	if got := r.sess.Stats().PlanCompiles; got != plans {
		t.Errorf("the second fault compiled %d plans, want 0", got-plans)
	}
}

// TestSessionLogicalInvalidation: a policy change re-checks the switches
// whose logical rules it changed.
func TestSessionLogicalInvalidation(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(19), steps: []step{editPolicy}})
}

// TestSessionInvalidate: Invalidate re-checks the switches it names, or
// every switch.
func TestSessionInvalidate(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(23), steps: []step{
		nil,
		func(_ *testing.T, r *coldRun) { r.invalidate(switchesOf(r.f)[0]) },
		func(_ *testing.T, r *coldRun) { r.invalidate() },
	}})
}

// TestSessionMissingRuleCap: a switch whose report exceeds the 4,096-rule
// cap is not cached and re-checks on every run. Switch 2 of production x0.1
// holds 4,315 rules, so clearing its TCAM puts exactly it over the cap; the
// fault mix's other broken switches stay under it and replay.
func TestSessionMissingRuleCap(t *testing.T) {
	cleared := func(t testing.TB) *scout.Fabric {
		f := faultyFabricOf(t, eval.SimSpec(0.1), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
		s, err := f.Switch(2)
		if err != nil {
			t.Fatal(err)
		}
		var keys []scout.RuleKey
		for _, r := range s.TCAM().Rules() {
			keys = append(keys, r.Key())
		}
		if got := s.TCAM().RemoveKeys(keys); got != len(keys) || s.TCAM().Len() != 0 {
			t.Fatalf("removed %d of %d rules, %d left", got, len(keys), s.TCAM().Len())
		}
		return f
	}
	r := equalsCold(t, coldCase{fabric: cleared, workers: 2, overCap: []scout.ObjectID{2}, steps: []step{nil}})
	if b := brokenSwitches(r.last); b < 2 {
		t.Errorf("%d broken switches; the under-cap replay is vacuous", b)
	}
}

// TestSessionSharedBasePersistence pins the base lifecycle: one build
// serves every run of an unchanged deployment, TCAM drift included, and a
// recompiled one rebuilds it (equalsCold's BaseRebuilds invariant). The
// re-check of a drifted switch resolves its logical side from the base and
// compiles exactly its one drifted list.
func TestSessionSharedBasePersistence(t *testing.T) {
	var cold scout.SessionStats
	drift := func(t *testing.T, r *coldRun) {
		if cold = r.sess.Stats(); cold.BaseNodes == 0 || cold.FoldHits == 0 || cold.FoldMisses == 0 || cold.DeltaNodes == 0 {
			t.Errorf("cold run: %+v, want base nodes, fold hits and misses, and delta nodes", cold)
		}
		removeOneRule(t, r.f, switchesOf(r.f)[0])
	}
	folds := func(t *testing.T, r *coldRun) {
		if st := r.sess.Stats(); st.BaseNodes != cold.BaseNodes || st.FoldHits <= cold.FoldHits || st.FoldMisses != cold.FoldMisses+1 {
			t.Errorf("after drift: %+v, want the cold run's base, more fold hits and one more miss than %+v", st, cold)
		}
	}
	equalsCold(t, coldCase{fabric: seeded(7), steps: []step{drift, folds, editPolicy}})
}

// TestSessionProbeWarmReplay: a probe round on an unchanged fabric probes
// nothing, a fault re-probes exactly its switch with exactly its probes,
// and an equal-content redeploy replays everything.
func TestSessionProbeWarmReplay(t *testing.T) {
	remove := func(t *testing.T, r *coldRun) { removeOneRule(t, r.f, switchesOf(r.f)[1]) }
	equalsCold(t, coldCase{fabric: seeded(3), probes: true, workers: 2, steps: []step{nil, remove, remove, redeploy}})
}

// TestSessionProbeReplayUnderMutations drives the probe replay path through
// random evictions, corruptions, object faults and redeploys.
func TestSessionProbeReplayUnderMutations(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(17), probes: true, steps: randomChurn(23, 8)})
}

// TestSessionProbeRejectsSnapshotEntryPoints: the entry points handed
// collected TCAM snapshots have no dataplane to probe and refuse a probe
// session — a one-shot probe Analyzer's AnalyzeState included — without
// counting a run.
func TestSessionProbeRejectsSnapshotEntryPoints(t *testing.T) {
	f := faultyFabric(t, 3)
	opts := scout.AnalyzerOptions{UseProbes: true}
	sess := newSession(t, f, opts)
	if _, err := sess.AnalyzeEpoch(scout.NewCollector(f, 0).Snapshot()); err == nil {
		t.Error("AnalyzeEpoch must refuse in probe mode")
	}
	if _, err := sess.AnalyzeState(fabricState(f)); err == nil {
		t.Error("AnalyzeState must refuse in probe mode")
	}
	if _, err := scout.NewAnalyzer(opts).AnalyzeState(fabricState(f)); err == nil {
		t.Error("a probe-mode Analyzer's AnalyzeState must refuse")
	}
	if st := sess.Stats(); st.Runs != 0 {
		t.Errorf("refused entry points counted %d runs", st.Runs)
	}
}

// TestSessionRequiresDeploy mirrors the analyzer's undeployed-fabric
// error on both session entry points.
func TestSessionRequiresDeploy(t *testing.T) {
	f := undeployed(t)
	sess := newSession(t, f)
	if _, err := sess.Analyze(); err == nil {
		t.Error("Analyze before Deploy must fail")
	}
	if _, err := sess.AnalyzeEpoch(scout.NewCollector(f, 0).Snapshot()); err == nil {
		t.Error("AnalyzeEpoch before Deploy must fail")
	}
	if _, err := sess.AnalyzeState(scout.State{}); err == nil {
		t.Error("AnalyzeState without deployment must fail")
	}
}

// TestSessionFoldSharing pins the semantics-cache contract end to end: a
// clean fabric's cold session run resolves every whole-switch fold —
// both the logical side and the (semantically identical) TCAM side —
// from the base's frozen roots, so not a single fold builds privately;
// after one switch drifts, exactly its one drifted TCAM list folds into
// a worker delta.
func TestSessionFoldSharing(t *testing.T) {
	f := cleanFabric(t, scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: 7})
	sess := newSession(t, f)
	mustReport(t, sess.Analyze)
	// Nothing to localize on a clean fabric, so no plan is compiled either.
	if st := sess.Stats(); st.BaseSemantics == 0 || st.FoldMisses != 0 || st.FoldHits == 0 || st.PlanCompiles+st.PlanReuses != 0 {
		t.Fatalf("clean cold run: %+v, want frozen semantics roots resolving every fold, and no plan", st)
	}
	st := sess.Stats()
	removeOneRule(t, f, switchesOf(f)[0])
	mustReport(t, sess.Analyze)
	if st2 := sess.Stats(); st2.Checked-st.Checked != 1 || st2.FoldMisses-st.FoldMisses != 1 || st2.FoldHits <= st.FoldHits {
		t.Errorf("one drifted switch: %+v after %+v, want one check folding its TCAM side privately and its logical side from the base", st2, st)
	}
}

// TestSessionDedupReplays: a session over byte-equal duplicate switches
// checks each on first sight and replays them all on the next run.
func TestSessionDedupReplays(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), state: dupState, entry: viaState, steps: []step{nil}})
}

// TestSessionNodeBudgetReset: a worker checker whose delta is over budget
// is re-forked before a run reuses it, and the reports stay cold
// analyses'. No test fabric comes near the session's budget, so each step
// first applies the same reset at a tiny one.
func TestSessionNodeBudgetReset(t *testing.T) {
	steps := make([]step, 6)
	for i := range steps {
		steps[i] = func(t *testing.T, r *coldRun) {
			scout.ResetCheckersOver(r.sess, 256)
			switches := switchesOf(r.f)
			removeOneRule(t, r.f, switches[i%len(switches)])
		}
	}
	r := equalsCold(t, coldCase{fabric: seeded(9), entry: viaEpoch, workers: 1, steps: steps})
	if st := r.sess.Stats(); st.CheckerResets == 0 {
		t.Fatalf("no resets under a 256-node budget: %+v", st)
	}
}

// TestWatchMemoryIsBounded pins what a watching session holds onto: under
// steady TCAM churn — every switch dirty every round, the paper's continuous
// mode — the live heap follows the fabric, not the number of rounds watched.
// A checker that remembers collected lists pins one whole TCAM snapshot per
// dirty check (≈ 1.25 MB a round here, ≈ +125 MB over the measured hundred
// rounds); one that remembers logical lists only grows by its compile-memo
// keys and delta nodes (≈ +10 MB), which the node budget governs. The bound
// must hold without that budget having intervened. Reads the process heap,
// so it is not parallel.
func TestWatchMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("120 rounds of full-fabric churn")
	}
	f := cleanFabric(t, scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	opts := scout.AnalyzerOptions{Workers: 2}
	sess := newSession(t, f, opts)
	collector := scout.NewCollector(f, 2)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var at20 uint64
	for round := 1; round <= 120; round++ {
		for _, sw := range switchesOf(f) {
			if _, err := f.EvictTCAM(sw, 2); err != nil {
				t.Fatal(err)
			}
		}
		e := collector.Snapshot()
		warm, err := sess.AnalyzeEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if round%30 == 0 {
			cold, err := scout.NewAnalyzer(opts).AnalyzeState(fabricState(f))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
				t.Fatalf("round %d: warm report differs from a cold analysis of the same state", round)
			}
		}
		if round == 20 {
			at20 = liveHeap()
		}
	}
	const bound = 40 << 20
	grown := int64(liveHeap()) - int64(at20)
	t.Logf("live heap grew %.1f MB over rounds 20-120", float64(grown)/(1<<20))
	if grown > bound {
		t.Errorf("live heap grew %.1f MB over rounds 20-120 of churn, want under %d MB",
			float64(grown)/(1<<20), bound>>20)
	}
	st := sess.Stats()
	if want := 120 * len(f.Deployment().BySwitch); st.Checked != want {
		t.Errorf("session checked %d switches, want %d (every switch dirty every round)", st.Checked, want)
	}
	if st.CheckerResets != 0 {
		t.Errorf("the bound must hold without the node budget: %d resets", st.CheckerResets)
	}
}
