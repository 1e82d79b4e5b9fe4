package scout_test

// Session behaviours, each a case of the runner (equalscold_test.go). The
// runner checks every run against a cold analysis and against what its
// model of the session says the run did; what a case asserts besides is
// what its script is for.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"scout"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/workload"
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

// TestSessionIncrementalSingleSwitch: an epoch after one switch lost a rule
// re-checks that switch alone, and so does a second fault on it once it is
// broken.
func TestSessionIncrementalSingleSwitch(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), entry: viaEpoch, workers: 2, steps: []step{{opEvict, 1, 0}, {}, {opEvict, 1, 0}}})
}

// TestSessionLogicalInvalidation: a policy change re-checks the switches
// whose logical rules it changed.
func TestSessionLogicalInvalidation(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(19), steps: []step{{opAddFilter, 0, 0}}})
}

// TestSessionReplaysLargeVerdict: a verdict replays whatever its size.
// Switch 2 of production x0.1 holds 4,315 rules and, stripped, misses them
// all; the unchanged fabric that follows replays it with every other
// switch. Its rules reinstalled, it re-checks: the strip's verdict replaced
// the baseline's. So the baseline checks every switch, the strip and the
// restore switch 2 alone, and the unchanged run none.
func TestSessionReplaysLargeVerdict(t *testing.T) {
	t.Parallel()
	production := func(t testing.TB) *scout.Fabric {
		return faultyFabricOf(t, eval.SimSpec(0.1), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	}
	r := equalsCold(t, coldCase{fabric: production, workers: 2, steps: []step{{opStrip, 1, 0}, {}, {opRestore, 1, 0}}})
	var stripped scout.Report
	if err := json.Unmarshal(r.colds[1], &stripped); err != nil {
		t.Fatal(err)
	}
	if n := len(switchReport(t, &stripped, 2).MissingRules); n <= 4096 || switchReport(t, r.last, 1).Equivalent {
		t.Fatalf("stripped switch 2 misses %d rules, and switch 1 is consistent at the end; the case is vacuous", n)
	}
	if st, n := r.sess.Stats(), len(r.last.Switches); st.Checked != n+2 || st.Replayed != 3*n-2 {
		t.Errorf("%d switches checked and %d replayed over four runs of %d switches, want %d and %d", st.Checked, st.Replayed, n, n+2, 3*n-2)
	}
}

// TestSessionOneBaseBuildPerDeployment: a session with a warm store builds
// and saves a deployment's base once, at its first run. A TCAM eviction
// re-checks the one drifted switch and an unchanged fabric replays every
// verdict, neither building anything; a new filter is a new deployment,
// which builds and saves its own base.
func TestSessionOneBaseBuildPerDeployment(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), steps: []step{{opEvict, 0, 0}, {}, {opAddFilter, 0, 0}}})
}

// TestSessionNoStoreWarmReplay: a session with no warm store, which holds
// no base, checks nothing on an unchanged fabric, re-checks exactly the
// switch a silent write touched, and replays everything after an
// equal-content redeploy.
func TestSessionNoStoreWarmReplay(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(3), noStore: true, workers: 2, steps: []step{{}, {opSilent, 1, 0}, {opSilent, 1, 1}, {opRedeploy, 0, 0}}})
}

// TestSessionNoStoreReplayUnderMutations drives the replay path of a
// session with no warm store through a drawn script.
func TestSessionNoStoreReplayUnderMutations(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(17), noStore: true, steps: drawn(23, 12)})
}

// TestApplyEventsMatchesAnalyzeEpoch: Analyze, the event-driven refresh,
// over a drawn script equals a cold analysis after every step.
func TestApplyEventsMatchesAnalyzeEpoch(t *testing.T) {
	t.Parallel()
	equalsCold(t, coldCase{workers: 2, steps: drawn(23, 12)})
}

// refuses fails t unless every analysis returns an error and no report.
func refuses(t *testing.T, what string, analyses ...func() (*scout.Report, error)) {
	t.Helper()
	for i, analyze := range analyses {
		if rep, err := analyze(); err == nil || rep != nil {
			t.Errorf("%s: analysis %d returned %v, %v; want it refused", what, i, rep, err)
		}
	}
}

// TestSessionReadsItsState: a session checks the T lists it is handed,
// not the fabric's tables. An epoch is taken, then one exact allow rule is
// removed through Switch.TCAM, which emits no event. AnalyzeEpoch of the
// epoch equals a cold one-shot AnalyzeState of the epoch's state and does
// not report the rule; the next Analyze collects the removal, reports it,
// and equals a cold analysis.
func TestSessionReadsItsState(t *testing.T) {
	f, opts := faultyFabric(t, 3), scout.AnalyzerOptions{}
	sess := newSession(t, f, opts)
	epoch := scout.NewCollector(f, 0).Snapshot()
	st := fabricState(f)
	st.TCAM, st.Now = epoch.TCAM, epoch.Time

	d, sw := f.Deployment(), switchesOf(f)[0]
	s, err := f.Switch(sw)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(s.TCAM().Rules(), func(x scout.Rule) bool {
		return exactAllows([]scout.Rule{x}) == 1 && slices.ContainsFunc(d.RulesFor(sw), func(l scout.Rule) bool { return l.Key() == x.Key() })
	})
	if i < 0 {
		t.Fatalf("switch %d holds no exact allow rule of its logical list", sw)
	}
	gone := s.TCAM().Rules()[i]
	s.TCAM().Remove(gone.Key())
	reports := func(rep *scout.Report) bool {
		return slices.ContainsFunc(switchReport(t, rep, sw).MissingRules, func(x scout.Rule) bool { return x.Key() == gone.Key() })
	}

	got := mustReport(t, func() (*scout.Report, error) { return sess.AnalyzeEpoch(epoch) })
	want := mustReport(t, func() (*scout.Report, error) { return scout.NewAnalyzer(opts).AnalyzeState(st) })
	if reports(got) || !bytes.Equal(marshalReport(t, got), marshalReport(t, want)) {
		t.Errorf("AnalyzeEpoch of the epoch reports the rule removed after it (%v), or differs from a cold AnalyzeState of it", reports(got))
	}
	got = mustReport(t, sess.Analyze)
	if !reports(got) || !bytes.Equal(marshalReport(t, got), marshalReport(t, oneShot(t, f, opts))) {
		t.Errorf("Analyze misses the removed rule (%v), or differs from a cold analysis", !reports(got))
	}
}

// TestSessionRequiresDeploy mirrors the analyzer's undeployed-fabric
// error on every session entry point.
func TestSessionRequiresDeploy(t *testing.T) {
	f := undeployed(t)
	sess := newSession(t, f)
	refuses(t, "undeployed", sess.Analyze, func() (*scout.Report, error) { return sess.AnalyzeEpoch(scout.NewCollector(f, 0).Snapshot()) },
		func() (*scout.Report, error) { return sess.AnalyzeState(scout.State{}) })
}

// TestSessionCleanFabricThenSilentDrift: a clean fabric's first run checks
// every switch, finds each consistent and localizes nothing; an exact
// allow rule then removed from one switch through its TCAM, which emits
// no event, re-checks that switch alone. Both reports equal a cold
// analysis.
func TestSessionCleanFabricThenSilentDrift(t *testing.T) {
	clean := func(t testing.TB) *scout.Fabric {
		return cleanFabric(t, workload.TestbedSpec(), scout.FabricOptions{Seed: 7})
	}
	equalsCold(t, coldCase{fabric: clean, clean: true, steps: []step{{opSilent, 0, 0}}})
}

// TestSessionOneModelPerDeployment: a deployment has one risk model,
// built at its first run. The clean baseline and a rule evicted from one
// switch, then from another, annotate overlays over it, and a run after
// them reads the same model, whose arrays are the footprint's edges read
// both ways: each triplet's risk list and its switch, in ref order, and
// each risk's dependents, ascending.
func TestSessionOneModelPerDeployment(t *testing.T) {
	clean := func(t testing.TB) *scout.Fabric {
		return cleanFabric(t, workload.TestbedSpec(), scout.FabricOptions{Seed: 7})
	}
	r := equalsCold(t, coldCase{fabric: clean, clean: true, steps: []step{{opEvict, 0, 0}, {opEvict, 1, 0}}})
	m := r.last.ControllerView.Base()
	if mustReport(t, r.sess.Analyze).ControllerView.Base() != m {
		t.Error("a run on the same deployment read another risk model")
	}
	fp, refs, edges := r.f.Deployment().Footprint, m.Risks(), 0
	if !slices.IsSortedFunc(refs, scout.ObjectRef.Compare) || len(slices.Compact(slices.Clone(refs))) != len(refs) {
		t.Fatalf("risks %v are not in strict ref order", refs)
	}
	for el, sp := range fp.Pairs {
		want := append(slices.Clone(fp.Risks[el]), object.Switch(sp.Switch))
		slices.SortFunc(want, scout.ObjectRef.Compare)
		var got []object.Ref
		for _, id := range m.RisksOf(risk.ElementID(el)) {
			got = append(got, refs[id])
			if !slices.Contains(m.Dependents(id), risk.ElementID(el)) {
				t.Errorf("%v depends on %v, which does not list it", sp, refs[id])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v depends on %v, want %v", sp, got, want)
		}
		edges += len(got)
	}
	for id := range refs {
		deps := m.Dependents(risk.RiskID(id))
		if !slices.IsSorted(deps) {
			t.Errorf("%v's dependents %v do not ascend", refs[id], deps)
		}
		edges -= len(deps)
	}
	if edges != 0 {
		t.Errorf("the element rows hold %d more edges than the risk rows", edges)
	}
}

// TestSessionDedupReplays: a session over byte-equal duplicate switches
// checks each on first sight and replays them all on the next run.
func TestSessionDedupReplays(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), state: dupState, entry: viaState, steps: []step{{}}})
}

// TestSessionRecoversFromFailedRun: a run whose check fails names the
// switch and returns no report, and once the switch is repaired the next
// run re-checks it — the failed runs cached nothing.
func TestSessionRecoversFromFailedRun(t *testing.T) {
	equalsCold(t, coldCase{steps: []step{{opPoison, 1, 0}, {opEvict, 1, 0}, {opPoison, 1, 0}}})
}

// TestSessionWarmRestartIdentity: a fresh process (new store handle, new
// session) over an unchanged fabric loads the persisted base and replays
// every verdict, and a mutation after a restart re-checks exactly the
// dirty switch, so the restored cache is live, not just replayable.
func TestSessionWarmRestartIdentity(t *testing.T) {
	equalsCold(t, coldCase{entry: viaRestart, workers: 2, steps: []step{{}, {opEvict, 0, 0}}})
}

// TestSessionSurfacesLostStateDir: when the state directory is removed
// under a running session every save fails, the reports are a store-less
// analysis's, and Close reports the first write that failed: the base's.
func TestSessionSurfacesLostStateDir(t *testing.T) {
	equalsCold(t, coldCase{workers: 2, steps: []step{{opAddFilter, 0, 0}, {opRestart, 0, harmLoseIt}, {opEvict, 0, 0}}})
}

// TestOneShotIgnoresWarmStore: an Analyzer handed a store writes nothing
// to it and, over a directory a session populated, loads nothing — the
// runner hands its cold analyses the case's store, and holds them to the
// store's file times and to expectedFolds.
func TestOneShotIgnoresWarmStore(t *testing.T) {
	if r := equalsCold(t, coldCase{steps: []step{{opEvict, 0, 0}}}); len(r.good) == 0 {
		t.Fatal("the session persisted nothing; the case is vacuous")
	}
}

// TestSessionRebuildsOverWrongRootCount: a base file that loads under the
// deployment's fingerprint but holds a root per list of one list fewer is
// a cold start: the session rebuilds (BaseRebuilds 1, BaseLoads 0) and
// overwrites it, and the next restart loads what it wrote.
func TestSessionRebuildsOverWrongRootCount(t *testing.T) {
	equalsCold(t, coldCase{workers: 2, steps: []step{{opRestart, 0, harmFewer}, {opEvict, 0, 0}, {opRestart, 0, 0}}})
}

// TestSessionRebuildsOverOldCodecBase: warm state written by codec
// version 2 (whose base files carried the deployment's rule lists) is a
// clean miss, never a misparse: over an old base the session rebuilds
// (BaseRebuilds 1), over an old verdict file it re-checks, and each
// overwrites its file for the next restart.
func TestSessionRebuildsOverOldCodecBase(t *testing.T) {
	equalsCold(t, coldCase{workers: 2, steps: []step{{opRestart, 0, harmV2}, {opRestart, 1, harmV2}, {opRestart, 0, 0}}})
}

// TestSessionWarmRestart: verdicts persist under the deployment
// fingerprint, so a restarted session replays a clean fabric with no switch
// checked.
func TestSessionWarmRestart(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(13), entry: viaRestart, steps: []step{{}}})
}

// TestSessionEqualContentRedeploy covers the recompile that changes
// nothing: the session keeps its fingerprints and its verdicts, loads and
// builds no base, and rebuilds only the identity-keyed risk models, and a
// new process given the redeployed pointer finds the first process's files
// under the unchanged fingerprint.
func TestSessionEqualContentRedeploy(t *testing.T) {
	for _, noStore := range []bool{false, true} {
		t.Run(modes[noStore], func(t *testing.T) {
			colds := make(map[int][]byte)
			for _, e := range []entry{viaAnalyze, viaRestart} {
				equalsCold(t, coldCase{entry: e, noStore: noStore, steps: []step{{opRedeploy, 0, 0}}, colds: colds})
			}
		})
	}
}

// TestCopiedListsReplay: a verdict is witnessed by its lists' content, not
// by their addresses. Every run hands the session a new deployment and
// fresh copies of every L and T list (copiedState), so no slice is ever
// seen twice, and a nil provenance in one list turns empty and back; through
// the tour, with a store and without, the model counts every switch whose
// lists kept their content as replayed, and an unchanged fabric replays
// every switch.
func TestCopiedListsReplay(t *testing.T) {
	t.Parallel()
	for _, noStore := range []bool{false, true} {
		t.Run(modes[noStore], func(t *testing.T) {
			equalsCold(t, coldCase{state: copiedState(), entry: viaState, noStore: noStore, steps: tour})
			r := equalsCold(t, coldCase{state: copiedState(), entry: viaState, noStore: noStore, steps: []step{{}}})
			if n := len(r.last.Switches); r.want.Replayed != n || r.want.Checked != n {
				t.Fatalf("an unchanged fabric of %d switches counted %+v, want every switch checked once and replayed once", n, r.want)
			}
		})
	}
}

// TestSeededVerdictIsHashedNotTrusted pins how a stored verdict enters the
// cache: a cache entry vouches for a run's lists only by holding equal ones,
// and a verdict file holds only the fingerprints it keys each verdict by.
// So the run that loads the file hashes its own lists against them, adopts
// each verdict they match as an ordinary entry holding its lists, and drops
// the rest, for good. A filter rolls out (policy B) and back (policy A);
// switch 2, which it misses, keeps its clean verdict in B's file, and is
// stripped to three rules (or none: an empty list, whose fingerprint is
// not a full one's). A rule no check can encode on switch 1 fails every
// run, which caches nothing, until B is back and the rule gone. A session
// restarted under A finds A's verdict file flipped, so B's file is the
// first it loads, by a run that fails on switch 1: that run drops the
// verdicts of switch 1 and of switch 2, whose TCAM is lost, and adopts the
// others, so the next run re-checks those two switches and replays the
// rest.
func TestSeededVerdictIsHashedNotTrusted(t *testing.T) {
	t.Parallel()
	testbed := func(t testing.TB) *scout.Fabric {
		return cleanFabric(t, workload.TestbedSpec(), scout.FabricOptions{Seed: 7})
	}
	// The restart flips A's verdict file: in name order the two base files
	// come first, then the checks files, A's before B's when its
	// fingerprint is the smaller.
	f := testbed(t)
	policyA := f.Deployment()
	_, fpA := equiv.DeploymentFingerprints(policyA.BySwitch)
	mutate(t, f, []step{{opAddFilter, 0, 0}})
	_, fpB := equiv.DeploymentFingerprints(f.Deployment().BySwitch)
	x := byte(2)
	if fpA > fpB {
		x++
	}
	for name, keep := range map[string]byte{"three-left": 3, "emptied": 0} {
		t.Run(name, func(t *testing.T) {
			r := equalsCold(t, coldCase{fabric: testbed, clean: true, steps: []step{{opAddFilter, 0, 0}, {opDetach, 0, 0},
				{opStrip, 1, keep}, {opPoison, 0, 0}, {opRestart, x, harmFlip}, {opShare, 0, 0}, {opPoison, 0, 0}}})
			if switchReport(t, r.last, 2).Equivalent || !reflect.DeepEqual(policyA.RulesFor(2), r.f.Deployment().RulesFor(2)) {
				t.Fatal("switch 2 is consistent, or the rollout reached it; the case is vacuous")
			}
		})
	}
}

// TestWatchMemoryIsBounded: under churn of every switch every round, the
// paper's continuous mode, a session's live heap follows the fabric, not
// the rounds watched. A checker remembering collected lists would pin a
// snapshot per check (≈ +125 MB over a hundred rounds); one remembering
// logical lists grows ≈ 10 MB. Not parallel: it reads the process heap.
func TestWatchMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("120 rounds of full-fabric churn")
	}
	f := cleanFabric(t, workload.SmallFabricSpec(), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	opts := scout.AnalyzerOptions{Workers: 2}
	sess, collector := newSession(t, f, opts), scout.NewCollector(f, 2)
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var grown int64
	checked := 0
	for round := 1; round <= 120; round++ {
		for _, sw := range switchesOf(f) {
			if _, err := f.EvictTCAM(sw, 2); err != nil {
				t.Fatal(err)
			}
		}
		warm := mustReport(t, func() (*scout.Report, error) { return sess.AnalyzeEpoch(collector.Snapshot()) })
		checked += warm.Trace.Checked
		if round%30 == 0 && !bytes.Equal(marshalReport(t, warm), marshalReport(t, oneShot(t, f, opts))) {
			t.Fatalf("round %d: warm report differs from a cold analysis of the same state", round)
		}
		if round == 20 {
			grown = -liveHeap()
		}
	}
	grown += liveHeap()
	t.Logf("live heap grew %.1f MB over rounds 20-120", float64(grown)/(1<<20))
	if grown > 40<<20 || checked != 120*len(f.Deployment().BySwitch) {
		t.Errorf("live heap grew %.1f MB over rounds 20-120, want under 40 MB, with every switch checked every round (%d checks)",
			float64(grown)/(1<<20), checked)
	}
}

// dirImage reads every file under a warm-state directory.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}
