package scout_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"scout"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/tcam"
	"scout/internal/workload"
)

// faultyFabric builds a seeded multi-switch fabric (the paper's 6-switch
// testbed spec) with injectFaults' mix, so every checker path — missing
// rules, extra rules, partial faults — is exercised.
func faultyFabric(t testing.TB, seed int64) *scout.Fabric {
	t.Helper()
	return faultyFabricOf(t, workload.TestbedSpec(), scout.FabricOptions{Seed: seed})
}

// faultyFabricOf is faultyFabric on any spec: the same fault mix on a
// fabric generated and seeded from opts.Seed.
func faultyFabricOf(t testing.TB, spec scout.WorkloadSpec, opts scout.FabricOptions) *scout.Fabric {
	t.Helper()
	f := cleanFabric(t, spec, opts)
	injectFaults(t, f)
	return f
}

// cleanFabric deploys the workload spec generates from opts.Seed.
func cleanFabric(t testing.TB, spec scout.WorkloadSpec, opts scout.FabricOptions) *scout.Fabric {
	t.Helper()
	pol, topo, err := scout.GenerateWorkload(spec, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return deployed(t, pol, topo, opts)
}

// deployed builds a fabric of pol on topo and deploys it.
func deployed(t testing.TB, pol *scout.Policy, topo *scout.Topology, opts scout.FabricOptions) *scout.Fabric {
	t.Helper()
	f, err := scout.NewFabric(pol, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	return f
}

// injectFaults is faultyFabric's mix: the fabric's lowest deployed filter
// failed in full and its second at half, three rules evicted from its first
// switch, and two rules of its last corrupted into rules the policy never
// asked for.
func injectFaults(t testing.TB, f *scout.Fabric) {
	t.Helper()
	filters, switches := deployedIDs(f, object.KindFilter), switchesOf(f)
	if len(filters) < 2 {
		t.Fatalf("the fabric deploys %d filters, need at least 2", len(filters))
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[0]), 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[1]), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EvictTCAM(switches[0], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CorruptTCAM(switches[len(switches)-1], 2, tcam.CorruptDstEPG); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAnalyzeDeterministic: a first analysis at any worker count
// is the serial pipeline's, over every fanned-out stage.
func TestParallelAnalyzeDeterministic(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{2, 3, 4, 8, 0} {
		equalsCold(t, coldCase{fabric: seeded(7), workers: workers, colds: colds})
	}
}

// TestParallelNoStoreAnalyzeDeterministic is TestParallelAnalyzeDeterministic
// for a session with no warm store, which builds no base.
func TestParallelNoStoreAnalyzeDeterministic(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{2, 4, 0} {
		equalsCold(t, coldCase{fabric: seeded(11), workers: workers, noStore: true, colds: colds})
	}
}

// TestSharedBaseIdentity: a state analyzed at every CPU, its base built
// for the warm store, is the reference pipeline's, which checks each
// switch on a fresh checker.
func TestSharedBaseIdentity(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), entry: viaState, workers: runtime.NumCPU()})
}

// TestDedupIdentityWithDuplicateSwitches: on a state with byte-equal
// duplicate switches, consistent and faulty pairs alike, the report at
// every worker count is the reference pipeline's.
func TestDedupIdentityWithDuplicateSwitches(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{1, runtime.NumCPU()} {
		equalsCold(t, coldCase{fabric: seeded(7), state: dupState, entry: viaState, workers: workers, colds: colds})
	}
}

// TestSharedBaseEncodeStats: the base, written to the store byte for byte
// alike, does not depend on the worker count, on the state with twins and
// on the one whose lists leave union form on three switches; and the
// latter reports the same bytes in a session with no store.
func TestSharedBaseEncodeStats(t *testing.T) {
	t.Parallel()
	for i, state := range []func(testing.TB, *scout.Fabric) scout.State{dupState, beyondUnionState} {
		var bases map[string][]byte
		for _, workers := range []int{1, 2, 4} {
			c := coldCase{fabric: seeded(7), state: state, entry: viaState, workers: workers, steps: []step{{opEvict, 2, 0}}}
			r := equalsCold(t, c)
			if bases != nil && !maps.EqualFunc(bases, r.baseImg, bytes.Equal) {
				t.Errorf("Workers=%d built another base than Workers=1", workers)
			}
			bases = r.baseImg
			c.noStore = true
			if i == 1 && !bytes.Equal(marshalReport(t, equalsCold(t, c).last), marshalReport(t, r.last)) {
				t.Errorf("Workers=%d: a session with no store reports other bytes than one with a store", workers)
			}
		}
	}
}

// TestWorkersFloor: a nonsensical worker count is one per P, as 0 is.
func TestWorkersFloor(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(17), workers: -3})
}

// TestParallelCountersRepeat pins that a session's counters do not depend
// on which worker checked which switch: a case run twice keeps equal
// counters after every run, at an even and an uneven worker count alike.
func TestParallelCountersRepeat(t *testing.T) {
	t.Parallel()
	small := func(t testing.TB) *scout.Fabric {
		return faultyFabricOf(t, workload.SmallFabricSpec(), scout.FabricOptions{Seed: 3})
	}
	steps, colds := drawn(3, 5, opEvict, opCorrupt, opFault, opNone), make(map[int][]byte)
	for _, workers := range slices.Compact([]int{2, runtime.NumCPU(), 3}) {
		a := equalsCold(t, coldCase{fabric: small, workers: workers, steps: steps, colds: colds})
		b := equalsCold(t, coldCase{fabric: small, workers: workers, steps: steps, colds: colds})
		for i := range a.counts {
			if a.counts[i] != b.counts[i] {
				t.Fatalf("Workers=%d step %d: counters differ between identical runs:\n%s\n%s", workers, i, a.counts[i], b.counts[i])
			}
		}
	}
}

// TestConcurrentAnalyzeCalls pins the Analyzer's concurrency promise now
// that nothing guards it but the absence of shared state: eight Analyze
// calls at once on one Analyzer each return the serial run's bytes (and
// `go test -race` sees no shared write).
func TestConcurrentAnalyzeCalls(t *testing.T) {
	f := faultyFabric(t, 7)
	opts := scout.AnalyzerOptions{Workers: 2}
	a, want := scout.NewAnalyzer(opts), marshalReport(t, oneShot(t, f, opts))
	reps, errs := make([]*scout.Report, 8), make([]error, 8)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = a.Analyze(f)
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil || !bytes.Equal(marshalReport(t, rep), want) {
			t.Fatalf("concurrent call %d differs from the serial run (%v)", i, errs[i])
		}
	}
}

// TestConcurrentSessionUse drives one warm-store session from several
// goroutines at once — Analyze, AnalyzeEpoch of one shared Collector's
// snapshots, AnalyzeState and Stats — beside a one-shot of the
// same unchanged state: every report is a cold AnalyzeState's, and under
// -race the session's and the collector's locks cover what callers share.
func TestConcurrentSessionUse(t *testing.T) {
	f := faultyFabricOf(t, workload.SmallFabricSpec(), scout.FabricOptions{Seed: 3})
	st := fabricState(f)
	want := marshalReport(t, mustReport(t, func() (*scout.Report, error) {
		return scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 1}).AnalyzeState(st)
	}))
	opts := scout.AnalyzerOptions{Workers: 2, WarmStore: warmStore(t, t.TempDir())}
	sess, col := newSession(t, f, opts), scout.NewCollector(f, 4)
	// Each goroutine reads its reports while the others run: a cached
	// verdict a report shares must not be written after it is handed out.
	check := func(what string, rep *scout.Report, err error) {
		if err == nil {
			rep.Elapsed = 0
			var got []byte
			if got, err = json.Marshal(rep); err == nil && !bytes.Equal(got, want) {
				err = errors.New("the report differs from a cold AnalyzeState")
			}
		}
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	analyses := []func() (*scout.Report, error){
		sess.Analyze,
		func() (*scout.Report, error) { return sess.AnalyzeEpoch(col.Snapshot()) },
		func() (*scout.Report, error) { return sess.AnalyzeState(st) },
	}
	const analysts, rounds = 3, 6
	var wg sync.WaitGroup
	for g := 0; g < analysts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rep, err := analyses[(g+i)%3]()
				check(fmt.Sprintf("analyst %d, call %d", g, i), rep, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := scout.NewAnalyzer(opts).AnalyzeState(st)
		check("one-shot AnalyzeState", rep, err)
	}()
	// Stats runs until every analysis has returned.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			sess.Stats()
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Runs != analysts*rounds {
		t.Errorf("Runs = %d, want %d", st.Runs, analysts*rounds)
	}
}

// TestSharedStoreKeepsSaveErrorsApart: sessions over two deployments share
// one store and run at once, and a directory squatting on A's base file
// fails A's save. B's Close, asked first, reports nothing, and A's reports
// its base. The store holds one deployment, so whose files the shared run
// leaves depends on the order of its saves: a fresh session over B's
// fabric restarts from them or cold-starts, and the one after it restarts
// from B's whole files. A session over A then cold-starts beside its
// squatter, and its verdict file evicts B's. Every report equals a
// one-shot's.
func TestSharedStoreKeepsSaveErrorsApart(t *testing.T) {
	fa, fb := faultyFabric(t, 11), faultyFabric(t, 13)
	dir := t.TempDir()
	_, fp := equiv.DeploymentFingerprints(fa.Deployment().BySwitch)
	squat := filepath.Join(dir, fmt.Sprintf("base-%016x.scout", fp))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	oneShot := func(name string, f *scout.Fabric, rep *scout.Report) {
		t.Helper()
		cold, err := scout.NewAnalyzer().AnalyzeState(fabricState(f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
			t.Errorf("%s's report differs from a one-shot's", name)
		}
	}
	shared := scout.AnalyzerOptions{Workers: 2, WarmStore: warmStore(t, dir)}
	sessA, sessB := newSession(t, fa, shared), newSession(t, fb, shared)
	var wg sync.WaitGroup
	reps := make([]*scout.Report, 2)
	for i, sess := range []*scout.Session{sessA, sessB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if reps[i], err = sess.Analyze(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	oneShot("A", fa, reps[0])
	oneShot("B", fb, reps[1])
	if err := sessB.Close(); err != nil {
		t.Errorf("B.Close = %v, want nil: only A's save failed", err)
	}
	if err := sessA.Close(); err == nil || !strings.Contains(err.Error(), "base-") {
		t.Errorf("A.Close = %v, want A's failed base write", err)
	}

	// restart runs a fresh session over f on the store and returns the
	// bases it loaded and built and the switches it checked and replayed.
	// Only A's Close fails, on its squatted base again.
	restart := func(name string, f *scout.Fabric) [4]int {
		t.Helper()
		sess := newSession(t, f, shared)
		oneShot(name, f, mustReport(t, sess.Analyze))
		if err := sess.Close(); (err != nil) != (f == fa) {
			t.Errorf("%s's Close = %v", name, err)
		}
		st := sess.Stats()
		return [4]int{st.BaseLoads, st.BaseRebuilds, st.Checked, st.Replayed}
	}
	restart("B", fb)
	if got, want := restart("B again", fb), [4]int{1, 0, 0, len(fb.Deployment().BySwitch)}; got != want {
		t.Errorf("restart over B's files: bases loaded, built, switches checked, replayed %v, want %v", got, want)
	}
	if got, want := restart("A", fa), [4]int{0, 1, len(fa.Deployment().BySwitch), 0}; got != want {
		t.Errorf("restart over A's squatter: bases loaded, built, switches checked, replayed %v, want %v", got, want)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.scout"))
	files := slices.DeleteFunc(names, func(name string) bool { return name == squat })
	if info, err := os.Stat(squat); !slices.Equal(files, []string{filepath.Join(dir, verdictFile(fp))}) || err != nil || !info.IsDir() {
		t.Errorf("the store holds %v and A's squatter %v; want A's verdict file and the squatter", files, err)
	}
}

// TestParallelCheckErrorPropagates: a rule no check takes, installed on
// switch after switch, fails every run after the first, and the fan-out
// surfaces the lowest failing switch's error at any worker count — the
// cold serial run's — instead of deadlocking or returning a partial report.
func TestParallelCheckErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := equalsCold(t, coldCase{workers: workers, steps: []step{{opPoison, 4, 0}, {opPoison, 1, 0}, {opPoison, 2, 0}}})
		if r.want.Runs != 1 {
			t.Errorf("Workers=%d: %d runs completed, want only the unpoisoned first", workers, r.want.Runs)
		}
	}
}

// TestDedupErrorAttribution: when byte-equal switches cannot be checked,
// the error names the lowest, as a serial run does.
func TestDedupErrorAttribution(t *testing.T) {
	if r := equalsCold(t, coldCase{state: dupState, entry: viaState, workers: 2, steps: []step{{opPoison, 0, 0}}}); r.want.Runs != 1 {
		t.Errorf("%d runs completed, want only the unpoisoned first", r.want.Runs)
	}
}
