package scout_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"scout"
	"scout/internal/eval"
	"scout/internal/rule"
	"scout/internal/tcam"
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

// stateFromEpoch reconstructs the exact State a session run on the epoch
// analyzes, for cold-analyzer comparison.
func stateFromEpoch(f *scout.Fabric, e *scout.Epoch) scout.State {
	return scout.State{
		Deployment: f.Deployment(),
		TCAM:       e.TCAM,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        e.Time,
	}
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
// rule on whitelist fabrics, so the switch becomes inequivalent) and
// returns it.
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
	return rules[0]
}

// TestSessionIncrementalSingleSwitch is the regression test for the
// incremental session: a warm re-analysis after mutating one switch's
// rules must re-check only that switch and produce a report
// byte-identical to a cold full analysis, at every worker count. Warm
// runs localize through a copy-on-write overlay over the cached
// pristine controller model while the cold analyzer annotates a fresh
// build, so the byte comparison also pins overlay/model
// interchangeability end to end.
func TestSessionIncrementalSingleSwitch(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		f := faultyFabric(t, 7)
		opts := scout.AnalyzerOptions{Workers: workers}
		sess, err := scout.NewSession(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		collector := scout.NewCollector(f, 8)
		numSwitches := f.Topology().NumSwitches()

		// Cold session run: every switch is checked.
		e1 := collector.Snapshot()
		warm1, err := sess.AnalyzeEpoch(e1)
		if err != nil {
			t.Fatal(err)
		}
		cold := sess.Stats()
		if cold.Checked != numSwitches || cold.Replayed != 0 {
			t.Fatalf("workers=%d cold run stats = %+v, want %d checked", workers, cold, numSwitches)
		}
		// A cold inconsistent run compiles one localization plan for the
		// controller model plus one per inequivalent switch.
		if want := 1 + brokenSwitches(warm1); cold.PlanCompiles != want {
			t.Errorf("workers=%d: cold run compiled %d plans, want %d (controller + broken switches)",
				workers, cold.PlanCompiles, want)
		}
		cold1, err := scout.NewAnalyzer(opts).AnalyzeState(stateFromEpoch(f, e1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm1), marshalReport(t, cold1)) {
			t.Errorf("workers=%d: cold session report differs from analyzer", workers)
		}

		// Mutate exactly one switch, then re-analyze the next epoch.
		dirtySw := f.Topology().Switches()[1]
		removeOneRule(t, f, dirtySw)
		before := sess.Stats()
		e2 := collector.Snapshot()
		warm2, err := sess.AnalyzeEpoch(e2)
		if err != nil {
			t.Fatal(err)
		}
		after := sess.Stats()
		if got := after.Checked - before.Checked; got != 1 {
			t.Errorf("workers=%d: warm run re-checked %d switches, want 1", workers, got)
		}
		if got := after.Replayed - before.Replayed; got != numSwitches-1 {
			t.Errorf("workers=%d: warm run replayed %d switches, want %d", workers, got, numSwitches-1)
		}
		cold2, err := scout.NewAnalyzer(opts).AnalyzeState(stateFromEpoch(f, e2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm2), marshalReport(t, cold2)) {
			t.Errorf("workers=%d: warm delta report differs from cold analyzer", workers)
		}

		// No-change epoch: nothing is re-checked and the report repeats.
		e3 := collector.Snapshot()
		warm3, err := sess.AnalyzeEpoch(e3)
		if err != nil {
			t.Fatal(err)
		}
		again := sess.Stats()
		if got := again.Checked - after.Checked; got != 0 {
			t.Errorf("workers=%d: no-change run re-checked %d switches", workers, got)
		}
		// A warm run re-localizes every still-broken switch and the
		// controller overlay through cached plans, compiling none.
		if got := again.PlanCompiles - after.PlanCompiles; got != 0 {
			t.Errorf("workers=%d: no-change run compiled %d plans, want 0", workers, got)
		}
		if got, want := again.PlanReuses-after.PlanReuses, 1+brokenSwitches(warm3); got < want {
			t.Errorf("workers=%d: no-change run reused %d plans, want at least %d", workers, got, want)
		}
		if !bytes.Equal(marshalReport(t, warm3), marshalReport(t, warm2)) {
			t.Errorf("workers=%d: no-change report differs from previous run", workers)
		}

		// The already-broken switch takes a second fault: its report
		// changes, its risk model does not. Exactly it re-checks, and both
		// it and the controller localize through the plans compiled from
		// their pristine models — no compile.
		if !switchBroken(warm3, dirtySw) {
			t.Fatalf("workers=%d: switch %d is not broken; the second-fault case is vacuous", workers, dirtySw)
		}
		removeOneRule(t, f, dirtySw)
		e4 := collector.Snapshot()
		warm4, err := sess.AnalyzeEpoch(e4)
		if err != nil {
			t.Fatal(err)
		}
		second := sess.Stats()
		if got := second.Checked - again.Checked; got != 1 {
			t.Errorf("workers=%d: second fault re-checked %d switches, want 1", workers, got)
		}
		if got := second.PlanCompiles - again.PlanCompiles; got != 0 {
			t.Errorf("workers=%d: second fault compiled %d plans, want 0", workers, got)
		}
		if got := second.PlanReuses - again.PlanReuses; got < 2 {
			t.Errorf("workers=%d: second fault reused %d plans, want at least 2 (controller + the switch)", workers, got)
		}
		cold4, err := scout.NewAnalyzer(opts).AnalyzeState(stateFromEpoch(f, e4))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(marshalReport(t, warm4), marshalReport(t, warm3)) {
			t.Errorf("workers=%d: second fault left the report unchanged", workers)
		}
		if !bytes.Equal(marshalReport(t, warm4), marshalReport(t, cold4)) {
			t.Errorf("workers=%d: second-fault report differs from cold analyzer", workers)
		}
	}
}

// TestSessionLogicalInvalidation covers the deployment side of dirtiness:
// a policy change recompiles the deployment, and the session re-checks the
// switches whose logical rules changed while still matching a cold run.
func TestSessionLogicalInvalidation(t *testing.T) {
	f := faultyFabric(t, 19)
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}

	pol := f.Policy()
	if err := f.AddFilter(scout.Filter{ID: 64123, Name: "rollout", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 64123),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(pol.Bindings[0].Contract, 64123); err != nil {
		t.Fatal(err)
	}

	before := sess.Stats()
	warm, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	delta := sess.Stats().Checked - before.Checked
	if delta == 0 {
		t.Error("policy change dirtied no switches")
	}
	cold, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
		t.Error("post-change session report differs from cold analyzer")
	}
}

// TestSessionInvalidate covers manual invalidation: per-switch, full, and
// the Reset that also drops the checker pool.
func TestSessionInvalidate(t *testing.T) {
	f := faultyFabric(t, 23)
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	n := f.Topology().NumSwitches()
	sw := f.Topology().Switches()[0]

	run := func() int {
		t.Helper()
		before := sess.Stats().Checked
		if _, err := sess.Analyze(); err != nil {
			t.Fatal(err)
		}
		return sess.Stats().Checked - before
	}

	if got := run(); got != 0 {
		t.Errorf("steady-state run re-checked %d switches", got)
	}
	sess.Invalidate(sw)
	if got := run(); got != 1 {
		t.Errorf("after Invalidate(one): re-checked %d switches, want 1", got)
	}
	sess.Invalidate()
	if got := run(); got != n {
		t.Errorf("after Invalidate(): re-checked %d switches, want %d", got, n)
	}
	sess.Reset()
	if got := run(); got != n {
		t.Errorf("after Reset: re-checked %d switches, want %d", got, n)
	}
}

// TestSessionMissingRuleCap covers the cached-report bound: a switch whose
// report exceeds the session's 4,096-rule cap is not cached and falls back
// to a re-check on the next run, while the reports themselves stay
// byte-identical to a cold analyzer. Every switch of production x0.25 holds
// more than 4,096 allow rules, so clearing one switch's TCAM puts exactly
// that switch over the cap; the fault mix's other broken switches stay
// under it and replay.
func TestSessionMissingRuleCap(t *testing.T) {
	f := faultyFabricOf(t, eval.SimSpec(0.25), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	n := f.Topology().NumSwitches()
	cleared := f.Topology().Switches()[0]
	s, err := f.Switch(cleared)
	if err != nil {
		t.Fatal(err)
	}
	s.TCAM().Clear()

	sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.OverCap != 1 {
		t.Fatalf("OverCap = %d, want 1 (the cleared switch)", st.OverCap)
	}
	if b := brokenSwitches(rep1); b < 2 {
		t.Fatalf("%d broken switches; the under-cap replay is vacuous", b)
	}

	// Steady-state re-run: the over-cap switch re-checks, the rest replay.
	rep2, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	st2 := sess.Stats()
	if got := st2.Checked - st.Checked; got != 1 {
		t.Errorf("second run re-checked %d switches, want 1 (the cleared switch)", got)
	}
	if got := st2.Replayed - st.Replayed; got != n-1 {
		t.Errorf("second run replayed %d switches, want %d", got, n-1)
	}
	if st2.OverCap != 2 {
		t.Errorf("OverCap = %d after two runs, want 2", st2.OverCap)
	}

	cold, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := marshalReport(t, cold)
	if !bytes.Equal(marshalReport(t, rep1), coldJSON) || !bytes.Equal(marshalReport(t, rep2), coldJSON) {
		t.Error("capped session reports differ from cold analyzer")
	}
}

// TestSessionSharedBasePersistence pins the base lifecycle: one build
// serves every run of an unchanged deployment (TCAM drift included), a
// recompiled deployment rebuilds it, and Reset drops it.
func TestSessionSharedBasePersistence(t *testing.T) {
	f := faultyFabric(t, 7)
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.BaseRebuilds != 1 {
		t.Fatalf("cold run: BaseRebuilds = %d, want 1", st.BaseRebuilds)
	}
	if st.BaseNodes == 0 {
		t.Error("cold run must report base nodes")
	}
	// Every logical list resolves from the base; only the faulty switches'
	// TCAM lists compile from scratch, into the workers' deltas.
	if st.FoldHits == 0 || st.FoldMisses == 0 || st.DeltaNodes == 0 {
		t.Errorf("cold run fold counters: hits=%d misses=%d delta=%d, want all > 0",
			st.FoldHits, st.FoldMisses, st.DeltaNodes)
	}

	// TCAM drift dirties a switch but must not rebuild the base: the
	// re-check resolves the logical side from it and compiles exactly the
	// one drifted list.
	removeOneRule(t, f, f.Topology().Switches()[0])
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st2 := sess.Stats()
	if st2.BaseRebuilds != 1 {
		t.Errorf("TCAM drift rebuilt the base: BaseRebuilds = %d", st2.BaseRebuilds)
	}
	if st2.BaseNodes != st.BaseNodes {
		t.Errorf("TCAM drift changed the base: %d -> %d nodes", st.BaseNodes, st2.BaseNodes)
	}
	if st2.FoldHits <= st.FoldHits {
		t.Error("warm re-check must hit the persisted base")
	}
	if st2.FoldMisses != st.FoldMisses+1 {
		t.Errorf("warm re-check of one drifted switch compiled %d lists, want 1",
			st2.FoldMisses-st.FoldMisses)
	}

	// A policy change recompiles the deployment: new fingerprint, one
	// rebuild.
	if err := f.AddFilter(scout.Filter{ID: 64200, Name: "rollout", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 64200),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(f.Policy().Bindings[0].Contract, 64200); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().BaseRebuilds; got != 2 {
		t.Errorf("deployment change: BaseRebuilds = %d, want 2", got)
	}

	// Reset returns to cold: the next run rebuilds.
	sess.Reset()
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().BaseRebuilds; got != 3 {
		t.Errorf("after Reset: BaseRebuilds = %d, want 3", got)
	}
}

// probesOf counts the probes a round sends switch sw when it classifies
// it: one per allow rule between concrete EPGs in its logical list.
func probesOf(f *scout.Fabric, sw scout.ObjectID) int {
	n := 0
	for _, r := range f.Deployment().RulesFor(sw) {
		if r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst {
			n++
		}
	}
	return n
}

// TestSessionProbeWarmReplay is the probe-mode replay regression test:
// a warm probe round on an unchanged fabric classifies nothing (every
// switch's verdict replays off its TCAM fingerprint: Checked and
// ProbePacketsBatched stand still), a one-switch mutation re-classifies
// exactly that switch with exactly its probes, an equal-content redeploy
// replays everything, no round builds a BDD base, and every round's
// report is byte-identical to a cold Analyzer probe run — at workers 1,
// 2, and NumCPU.
func TestSessionProbeWarmReplay(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		f := faultyFabric(t, 3)
		opts := scout.AnalyzerOptions{UseProbes: true, Workers: workers}
		sess, err := scout.NewSession(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		numSwitches := f.Topology().NumSwitches()

		// Cold round: every switch's probes are classified, in batches.
		warm1, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st := sess.Stats()
		if st.Checked != numSwitches || st.Replayed != 0 {
			t.Fatalf("workers=%d cold probe stats = %+v, want %d classified", workers, st, numSwitches)
		}
		allProbes := 0
		for _, sw := range f.Topology().Switches() {
			allProbes += probesOf(f, sw)
		}
		if st.ProbePacketsBatched == 0 || st.ProbePacketsBatched != allProbes {
			t.Fatalf("workers=%d: cold probe round batched %d packets, want the fabric's %d eligible rules",
				workers, st.ProbePacketsBatched, allProbes)
		}
		cold1, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm1), marshalReport(t, cold1)) {
			t.Errorf("workers=%d: cold probe session report differs from analyzer", workers)
		}

		// Warm round on the unchanged fabric: all replay, nothing
		// classified — no switch checked, no packet sent.
		warm2, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st2 := sess.Stats()
		if got := st2.Replayed - st.Replayed; got != numSwitches {
			t.Errorf("workers=%d: warm round replayed %d switches, want %d", workers, got, numSwitches)
		}
		if got := st2.Checked - st.Checked; got != 0 {
			t.Errorf("workers=%d: warm round classified %d switches, want 0", workers, got)
		}
		if st2.ProbePacketsBatched != st.ProbePacketsBatched {
			t.Errorf("workers=%d: warm round touched the dataplane: %d -> %d packets batched",
				workers, st.ProbePacketsBatched, st2.ProbePacketsBatched)
		}
		if !bytes.Equal(marshalReport(t, warm1), marshalReport(t, warm2)) {
			t.Errorf("workers=%d: warm probe replay report differs from cold round", workers)
		}

		// Mutate one switch: exactly it re-classifies, the rest replay.
		dirtySw := f.Topology().Switches()[1]
		removeOneRule(t, f, dirtySw)
		warm3, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st3 := sess.Stats()
		if got := st3.Checked - st2.Checked; got != 1 {
			t.Errorf("workers=%d: post-mutation round classified %d switches, want 1", workers, got)
		}
		if got := st3.Replayed - st2.Replayed; got != numSwitches-1 {
			t.Errorf("workers=%d: post-mutation round replayed %d switches, want %d", workers, got, numSwitches-1)
		}
		if got, want := st3.ProbePacketsBatched-st2.ProbePacketsBatched, probesOf(f, dirtySw); got != want {
			t.Errorf("workers=%d: post-mutation round batched %d packets, want switch %d's %d probes",
				workers, got, dirtySw, want)
		}
		cold3, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm3), marshalReport(t, cold3)) {
			t.Errorf("workers=%d: post-mutation probe report differs from cold analyzer", workers)
		}

		// A second fault on the now-broken switch: it alone re-classifies,
		// and it and the controller localize through the plans their
		// pristine models already carry.
		if !switchBroken(warm3, dirtySw) {
			t.Fatalf("workers=%d: switch %d is not broken; the second-fault case is vacuous", workers, dirtySw)
		}
		removeOneRule(t, f, dirtySw)
		warm4, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st4 := sess.Stats()
		if got := st4.Checked - st3.Checked; got != 1 {
			t.Errorf("workers=%d: second fault classified %d switches, want 1", workers, got)
		}
		if got := st4.PlanCompiles - st3.PlanCompiles; got != 0 {
			t.Errorf("workers=%d: second fault compiled %d plans, want 0", workers, got)
		}
		if got := st4.PlanReuses - st3.PlanReuses; got < 2 {
			t.Errorf("workers=%d: second fault reused %d plans, want at least 2 (controller + the switch)", workers, got)
		}
		cold4, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(marshalReport(t, warm4), marshalReport(t, warm3)) {
			t.Errorf("workers=%d: second fault left the probe report unchanged", workers)
		}
		if !bytes.Equal(marshalReport(t, warm4), marshalReport(t, cold4)) {
			t.Errorf("workers=%d: second-fault probe report differs from cold analyzer", workers)
		}

		// An equal-content redeploy hands the session a new *Deployment
		// and changes nothing else (injected faults bypass the agents'
		// views, so Deploy does not restore them), and a probe session
		// holds nothing that points into the old one: every verdict
		// replays, no packet is sent, the report stands. No round of a
		// probe session built or loaded a BDD base.
		before := f.Deployment()
		if err := f.Deploy(); err != nil {
			t.Fatal(err)
		}
		if f.Deployment() == before {
			t.Fatal("Deploy returned the same *Deployment; the redeploy case is vacuous")
		}
		warm5, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st5 := sess.Stats()
		if st5.Checked != st4.Checked || st5.Replayed-st4.Replayed != numSwitches ||
			st5.ProbePacketsBatched != st4.ProbePacketsBatched {
			t.Errorf("workers=%d: equal-content redeploy classified %d switches (%d packets), replayed %d; want 0, 0, %d",
				workers, st5.Checked-st4.Checked, st5.ProbePacketsBatched-st4.ProbePacketsBatched,
				st5.Replayed-st4.Replayed, numSwitches)
		}
		if !bytes.Equal(marshalReport(t, warm5), marshalReport(t, warm4)) {
			t.Errorf("workers=%d: equal-content redeploy changed the probe report", workers)
		}
		if st5.BaseRebuilds != 0 || st5.BaseLoads != 0 || st5.BaseNodes != 0 || warm5.EncodeStats != nil {
			t.Errorf("workers=%d: a probe session built a BDD base: %+v", workers, st5)
		}
	}
}

// TestSessionProbeReplayUnderMutations fuzzes the probe replay path:
// random evict/corrupt/deploy mutations between rounds, with every
// round's report pinned byte-identical to a cold probe analysis, the
// replay partition always covering the whole fabric, and exactly the
// switches whose TCAM content moved classified, each with one probe per
// eligible rule of its logical list.
func TestSessionProbeReplayUnderMutations(t *testing.T) {
	f := faultyFabric(t, 17)
	opts := scout.AnalyzerOptions{UseProbes: true}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	numSwitches := f.Topology().NumSwitches()
	switches := f.Topology().Switches()
	rng := rand.New(rand.NewSource(23))
	prev := sess.Stats()
	lastTCAM := make(map[scout.ObjectID][]scout.Rule) // T lists of the previous round
	for round := 0; round < 8; round++ {
		switch rng.Intn(4) {
		case 0:
			if _, err := f.EvictTCAM(switches[rng.Intn(len(switches))], 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := f.CorruptTCAM(switches[rng.Intn(len(switches))], 1+rng.Intn(2),
				tcam.CorruptionField(1+rng.Intn(4))); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Redeploy: heals dirty switches and swaps the deployment
			// pointer, exercising the recompile path of the cache key.
			if err := f.Deploy(); err != nil {
				t.Fatal(err)
			}
		case 3:
			// No mutation: a fully replayed round.
		}
		// The logical lists never change content here (every Deploy
		// recompiles the same policy), so a switch is dirty exactly when
		// its TCAM content differs from the previous round's.
		wantClassified, wantPackets := 0, 0
		for sw, rules := range f.CollectAll() {
			if last, seen := lastTCAM[sw]; !seen || !reflect.DeepEqual(last, rules) {
				wantClassified++
				wantPackets += probesOf(f, sw)
			}
			lastTCAM[sw] = rules
		}
		warm, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st := sess.Stats()
		classified := st.Checked - prev.Checked
		replayed := st.Replayed - prev.Replayed
		if classified+replayed != numSwitches {
			t.Fatalf("round %d: classified %d + replayed %d != %d switches",
				round, classified, replayed, numSwitches)
		}
		if packets := st.ProbePacketsBatched - prev.ProbePacketsBatched; classified != wantClassified || packets != wantPackets {
			t.Fatalf("round %d: classified %d switches with %d packets, want %d with %d",
				round, classified, packets, wantClassified, wantPackets)
		}
		prev = st
		cold, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
			t.Fatalf("round %d: warm probe report differs from cold analyzer", round)
		}
	}
}

// TestSessionProbeRejectsSnapshotEntryPoints pins the probe-mode driving
// contract. The entry points handed collected TCAM snapshots have no
// dataplane to probe and must refuse — a one-shot probe Analyzer's
// AnalyzeState included, which used to run a BDD check nobody asked for.
// ApplyEvents reads the session's own fabric, so it drives a probe session
// like any other: after a baseline, a fault on one switch plus a batch
// naming it re-reads and classifies exactly that switch, and the report is
// a cold probe analysis's.
func TestSessionProbeRejectsSnapshotEntryPoints(t *testing.T) {
	f := faultyFabric(t, 3)
	opts := scout.AnalyzerOptions{UseProbes: true}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		t.Fatal(err)
	}
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

	if _, err := sess.ApplyEvents(scout.EventBatch{}); err != nil { // full baseline
		t.Fatal(err)
	}
	n := f.Topology().NumSwitches()
	base := sess.Stats()
	if base.Checked != n || base.EventBatches != 0 {
		t.Fatalf("baseline: classified %d switches in %d partial refreshes, want %d in 0",
			base.Checked, base.EventBatches, n)
	}
	sw := f.Topology().Switches()[1]
	removeOneRule(t, f, sw)
	rep, err := sess.ApplyEvents(scout.EventBatch{Switches: []scout.ObjectID{sw}})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if got := st.Checked - base.Checked; got != 1 {
		t.Errorf("event batch classified %d switches, want 1", got)
	}
	if got := st.Replayed - base.Replayed; got != n-1 {
		t.Errorf("event batch replayed %d switches, want %d", got, n-1)
	}
	if st.EventBatches != 1 || st.EventSwitchesRead != 1 || st.EventSwitchesAliased != n-1 {
		t.Errorf("event batch: %d partial refreshes, read %d, aliased %d; want 1, 1, %d",
			st.EventBatches, st.EventSwitchesRead, st.EventSwitchesAliased, n-1)
	}
	if !switchBroken(rep, sw) {
		t.Errorf("switch %d lost a rule and is not reported broken", sw)
	}
	cold, err := scout.NewAnalyzer(opts).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
		t.Error("probe-mode event refresh differs from a cold probe analysis")
	}
}

// TestSessionRequiresDeploy mirrors the analyzer's undeployed-fabric
// error on both session entry points.
func TestSessionRequiresDeploy(t *testing.T) {
	pol, topo, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
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
	pol, topo, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.BaseSemantics == 0 {
		t.Fatalf("warmup froze no semantics roots: %+v", st)
	}
	if st.FoldMisses != 0 {
		t.Errorf("clean cold run built %d folds privately, want 0 (all frozen in base)", st.FoldMisses)
	}
	if st.FoldHits == 0 {
		t.Error("clean cold run never hit a frozen semantics root")
	}
	// Nothing to localize on a clean fabric, so no plan is ever compiled.
	if st.PlanCompiles != 0 || st.PlanReuses != 0 {
		t.Errorf("clean run compiled %d / reused %d plans, want zero localization work",
			st.PlanCompiles, st.PlanReuses)
	}

	sw := f.Topology().Switches()[0]
	removeOneRule(t, f, sw)
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st2 := sess.Stats()
	if got := st2.Checked - st.Checked; got != 1 {
		t.Fatalf("warm run re-checked %d switches, want 1", got)
	}
	if got := st2.FoldMisses - st.FoldMisses; got != 1 {
		t.Errorf("drifted switch caused %d private folds, want exactly 1 (its TCAM side)", got)
	}
	if st2.FoldHits <= st.FoldHits {
		t.Error("drifted switch's logical side must still hit the frozen root")
	}
}

// TestSessionDedupReplays drives a session over a state with byte-equal
// duplicate switches: every switch is checked on first sight, the report
// stays byte-identical to a cold analyzer on the same state, and a second
// run replays everything from the per-switch cache.
func TestSessionDedupReplays(t *testing.T) {
	f := faultyFabric(t, 7)
	st := dupState(t, f)
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.AnalyzeState(st)
	if err != nil {
		t.Fatal(err)
	}
	stats := sess.Stats()
	if stats.Checked != len(warm.Switches) {
		t.Errorf("first run checked %d of %d switches", stats.Checked, len(warm.Switches))
	}

	cold, err := scout.NewAnalyzer().AnalyzeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
		t.Error("session report over duplicate switches differs from cold analyzer")
	}

	// Unchanged state: everything replays from the per-switch cache.
	if _, err := sess.AnalyzeState(st); err != nil {
		t.Fatal(err)
	}
	again := sess.Stats()
	if again.Checked != stats.Checked {
		t.Errorf("second run re-checked %d switches", again.Checked-stats.Checked)
	}
	if got := again.Replayed - stats.Replayed; got != len(warm.Switches) {
		t.Errorf("second run replayed %d of %d switches", got, len(warm.Switches))
	}
}

// TestSessionNodeBudgetReset pins the node-budget policy: a worker checker
// whose delta is over budget is re-forked before a run reuses it, and the
// session's reports stay byte-identical to cold analyses throughout. No
// test fabric comes near the session's budget, so each round ends by
// applying the same reset at a deliberately tiny one.
func TestSessionNodeBudgetReset(t *testing.T) {
	f := faultyFabric(t, 9)
	opts := scout.AnalyzerOptions{Workers: 1}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	collector := scout.NewCollector(f, 8)
	switches := f.Topology().Switches()

	for round := 0; round < 6; round++ {
		// Dirty a different switch each round so re-checks keep adding
		// novel delta nodes to the persistent checker.
		removeOneRule(t, f, switches[round%len(switches)])
		e := collector.Snapshot()
		warm, err := sess.AnalyzeEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := scout.NewAnalyzer(opts).AnalyzeState(stateFromEpoch(f, e))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
			t.Fatalf("round %d: warm report differs from cold analyzer after a reset", round)
		}
		scout.ResetCheckersOver(sess, 256)
	}
	if st := sess.Stats(); st.CheckerResets == 0 {
		t.Fatalf("no resets under a 256-node budget: %+v", st)
	}

	// The session's own budget never intervenes on a small fabric.
	f2 := faultyFabric(t, 9)
	sess2, err := scout.NewSession(f2, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2 := scout.NewCollector(f2, 8)
	for round := 0; round < 3; round++ {
		removeOneRule(t, f2, switches[round%len(switches)])
		if _, err := sess2.AnalyzeEpoch(c2.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess2.Stats(); st.CheckerResets != 0 {
		t.Fatalf("the session budget intervened on a small fabric: %+v", st)
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
	pol, topo, err := scout.GenerateWorkload(scout.SmallFabricWorkloadSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 1, TCAMCapacity: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	opts := scout.AnalyzerOptions{Workers: 2}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	collector := scout.NewCollector(f, 2)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var at20 uint64
	for round := 1; round <= 120; round++ {
		for _, sw := range topo.Switches() {
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
			cold, err := scout.NewAnalyzer(opts).AnalyzeState(stateFromEpoch(f, e))
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
	if want := 120 * topo.NumSwitches(); st.Checked != want {
		t.Errorf("session checked %d switches, want %d (every switch dirty every round)", st.Checked, want)
	}
	if st.CheckerResets != 0 {
		t.Errorf("the bound must hold without the node budget: %d resets", st.CheckerResets)
	}
}
