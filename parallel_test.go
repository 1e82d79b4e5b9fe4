package scout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"scout"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// faultyFabric builds a seeded multi-switch fabric (the paper's 6-switch
// testbed spec) with injectFaults' mix, so every checker path — missing
// rules, extra rules, partial faults — is exercised.
func faultyFabric(t testing.TB, seed int64) *scout.Fabric {
	t.Helper()
	return faultyFabricOf(t, scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: seed})
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

// injectFaults is faultyFabric's mix: missingFaults at half, then two
// rules of the last switch corrupted into rules the policy never asked for.
func injectFaults(t testing.TB, f *scout.Fabric) {
	t.Helper()
	missingFaults(t, f, 0.5)
	switches := switchesOf(f)
	if _, err := f.CorruptTCAM(switches[len(switches)-1], 2, tcam.CorruptDstEPG); err != nil {
		t.Fatal(err)
	}
}

// missingFaults fails the fabric's lowest deployed filter in full and its
// second at fraction, then evicts three rules from its first switch: faults
// that only ever remove rules.
func missingFaults(t testing.TB, f *scout.Fabric, fraction float64) {
	t.Helper()
	filters := deployedIDs(f, object.KindFilter)
	if len(filters) < 2 {
		t.Fatalf("the fabric deploys %d filters, need at least 2", len(filters))
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[0]), 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[1]), fraction); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EvictTCAM(switchesOf(f)[0], 3); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAnalyzeDeterministic: a first analysis at any worker count
// is the serial pipeline's, over every fanned-out stage.
func TestParallelAnalyzeDeterministic(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{2, 3, 4, 8, 0} {
		equalsCold(t, coldCase{fabric: seeded(7), workers: workers, steps: baselineOnly, colds: colds})
	}
}

// TestSharedBaseIdentity: a state analyzed through base and fork checkers
// is the reference pipeline's, which checks each switch on a fresh checker.
func TestSharedBaseIdentity(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(7), entry: viaState, workers: runtime.NumCPU(), steps: baselineOnly})
}

// TestSharedBaseEncodeStats pins what the check stage reports about its
// encoding work: the base is built and consulted, what it shares does not
// depend on the worker count, and the forks compile only the drifted TCAM
// lists. On a state with byte-equal duplicate switches each twin's drifted
// list compiles again, since a checker remembers logical lists only: nine
// lists, twins included.
func TestSharedBaseEncodeStats(t *testing.T) {
	f := faultyFabric(t, 7)
	for _, st := range []scout.State{fabricState(f), dupState(t, f)} {
		frozen, unwarmed := expectedFolds(st)
		var baseNodes int
		for _, workers := range []int{1, 2, 4} {
			rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
			if err != nil {
				t.Fatal(err)
			}
			es := rep.EncodeStats
			if es.BaseNodes == 0 || es.FoldBaseHits == 0 {
				t.Errorf("Workers=%d: base not built or never consulted: %+v", workers, es)
			}
			// A warmed list is never re-compiled per worker: the base holds
			// one root per distinct logical list, and a run's from-scratch
			// compiles are only the drifted TCAM lists — at any worker count.
			if es.BaseSemantics != frozen || es.FoldMisses != unwarmed {
				t.Errorf("Workers=%d: %d frozen roots and %d fork folds, want %d and %d",
					workers, es.BaseSemantics, es.FoldMisses, frozen, unwarmed)
			}
			// The base's nodes are a function of the deployment alone.
			if workers == 1 {
				baseNodes = es.BaseNodes
			} else if es.BaseNodes != baseNodes {
				t.Errorf("Workers=%d: base holds %d nodes, %d at 1 worker", workers, es.BaseNodes, baseNodes)
			}
		}
		if len(st.TCAM) > len(f.Deployment().BySwitch) && unwarmed != 9 {
			t.Errorf("the state with twins has %d drifted lists, want 9", unwarmed)
		}
	}

	// Probe runs build no BDD checkers and carry no stats.
	if rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseProbes: true}).Analyze(f); err != nil || rep.EncodeStats != nil {
		t.Errorf("probe analysis must not report EncodeStats (%v)", err)
	}
}

// TestParallelProbeAnalyzeDeterministic is TestParallelAnalyzeDeterministic
// for the probe observation source.
func TestParallelProbeAnalyzeDeterministic(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{2, 4, 0} {
		equalsCold(t, coldCase{fabric: seeded(11), workers: workers, probes: true, steps: baselineOnly, colds: colds})
	}
}

// TestConcurrentAnalyzeCalls pins the Analyzer's concurrency promise now
// that nothing guards it but the absence of shared state: eight Analyze
// calls at once on one Analyzer, for either observation source, each return
// the serial run's bytes (and `go test -race` sees no shared write).
func TestConcurrentAnalyzeCalls(t *testing.T) {
	for _, probes := range []bool{false, true} {
		f := faultyFabric(t, 7)
		opts := scout.AnalyzerOptions{Workers: 2, UseProbes: probes}
		a, want := scout.NewAnalyzer(opts), marshalReport(t, oneShot(t, f, opts))

		const calls = 8
		reps := make([]*scout.Report, calls)
		errs := make([]error, calls)
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = a.Analyze(f)
			}(i)
		}
		wg.Wait()
		for i := range reps {
			if errs[i] != nil {
				t.Fatalf("probes=%v call %d: %v", probes, i, errs[i])
			}
			if !bytes.Equal(marshalReport(t, reps[i]), want) {
				t.Errorf("probes=%v: concurrent call %d differs from the serial run", probes, i)
			}
		}
	}
}

// TestConcurrentSessionUse drives one warm-store session from several
// goroutines at once — Analyze, AnalyzeEpoch of snapshots from one shared
// Collector, AnalyzeState, Invalidate and Stats — beside a one-shot
// AnalyzeState of the same state, then closes it. The faulted fabric does
// not change, so every report must equal a cold AnalyzeState; under -race
// the test also shows the session's and the collector's locks cover
// everything their callers share.
func TestConcurrentSessionUse(t *testing.T) {
	f := faultyFabricOf(t, scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 3})
	st := fabricState(f)
	cold, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 1}).AnalyzeState(st)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, cold)
	var switches []scout.ObjectID
	for _, sr := range cold.Switches {
		switches = append(switches, sr.Switch)
	}

	opts := scout.AnalyzerOptions{Workers: 2, WarmStore: warmStore(t, t.TempDir())}
	sess := newSession(t, f, opts)
	// check reads each report while the other goroutines run: a cached
	// verdict a report shares must not be written after it is handed out.
	check := func(op string, rep *scout.Report, err error) {
		if err != nil {
			t.Errorf("%s: %v", op, err)
			return
		}
		rep.Elapsed = 0
		if got, err := json.Marshal(rep); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from a cold AnalyzeState (%v)", op, err)
		}
	}

	const analysts, rounds = 3, 6
	col := scout.NewCollector(f, 4)
	var wg sync.WaitGroup
	for g := 0; g < analysts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 3 {
				case 0:
					rep, err := sess.Analyze()
					check("Analyze", rep, err)
				case 1:
					rep, err := sess.AnalyzeEpoch(col.Snapshot())
					check("AnalyzeEpoch", rep, err)
				case 2:
					rep, err := sess.AnalyzeState(st)
					check("Session.AnalyzeState", rep, err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := scout.NewAnalyzer(opts).AnalyzeState(st)
		check("one-shot AnalyzeState", rep, err)
	}()
	// Invalidate and Stats run until every analysis has returned.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rng := rand.New(rand.NewSource(int64(analysts)))
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			sess.Invalidate(switches[rng.Intn(len(switches))])
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

// badRule's VRF is past the checker's 16-bit field: no check can encode it.
var badRule = scout.Rule{Match: rule.Match{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 80}, Action: rule.Allow}

// unencodable is a state of n switches whose logical lists are badRule and
// whose TCAMs are empty.
func unencodable(n int) scout.State {
	st := scout.State{Deployment: &scout.Deployment{BySwitch: make(map[scout.ObjectID][]scout.Rule)}, TCAM: make(map[scout.ObjectID][]scout.Rule)}
	for sw := scout.ObjectID(1); sw <= scout.ObjectID(n); sw++ {
		st.Deployment.BySwitch[sw], st.TCAM[sw] = []scout.Rule{badRule}, nil
	}
	return st
}

// TestParallelCheckErrorPropagates forces an encoding error in the check
// stage and verifies the fan-out surfaces it instead of deadlocking or
// returning a partial report. The VRF id exceeds the checker's 16-bit
// field encoding, which is the only way a check itself can fail. Every
// switch fails, and the error is the lowest one's at any worker count.
func TestParallelCheckErrorPropagates(t *testing.T) {
	st := unencodable(8)
	for _, workers := range []int{1, 4} {
		_, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
		if err == nil {
			t.Fatalf("Workers=%d: expected encoding error, got nil", workers)
		}
		if !strings.Contains(err.Error(), "equivalence check switch 1:") {
			t.Errorf("Workers=%d: error should name switch 1, the lowest failing switch, got: %v", workers, err)
		}
	}
}

// TestParallelCountersRepeat pins that which worker's fork checks which
// switch is a function of the input: two sessions over identically seeded
// fabrics, driven through the same TCAM churn, keep equal counters — delta
// nodes, fold hits, op-cache totals — after every run, at an even and an
// uneven stride alike.
func TestParallelCountersRepeat(t *testing.T) {
	const rounds, batches = 4, 6
	for _, workers := range []int{2, 3, runtime.NumCPU()} {
		var fabs [2]*scout.Fabric
		var sess [2]*scout.Session
		var churn [2]func(sw scout.ObjectID, n int)
		for j := range fabs {
			fabs[j] = faultyFabricOf(t, scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 3})
			sess[j], churn[j] = newSession(t, fabs[j], scout.AnalyzerOptions{Workers: workers}), churner(t, fabs[j])
		}
		// step mutates and analyzes both sides, then compares their counters.
		step := func(name string, mutate func(j int), analyze func(*scout.Session) (*scout.Report, error)) {
			t.Helper()
			var enc [2]equiv.EncodeStats
			for j := range sess {
				mutate(j)
				rep, err := analyze(sess[j])
				if err != nil {
					t.Fatalf("Workers=%d %s: %v", workers, name, err)
				}
				enc[j] = *rep.EncodeStats
			}
			if a, b := sess[0].Stats(), sess[1].Stats(); a != b {
				t.Fatalf("Workers=%d %s: session counters differ between identical runs:\n%+v\n%+v", workers, name, a, b)
			}
			if enc[0] != enc[1] {
				t.Fatalf("Workers=%d %s: encode stats differ between identical runs:\n%+v\n%+v", workers, name, enc[0], enc[1])
			}
		}

		switches := switchesOf(fabs[0])
		for r := 0; r < rounds; r++ {
			step(fmt.Sprintf("churn round %d", r), func(j int) {
				for _, sw := range switches {
					churn[j](sw, 2)
				}
			}, (*scout.Session).Analyze)
		}
		for b := 0; b < batches; b++ {
			pair := []scout.ObjectID{switches[b%len(switches)], switches[(b+1)%len(switches)]}
			step(fmt.Sprintf("event batch %d", b), func(j int) {
				for _, sw := range pair {
					churn[j](sw, 1)
				}
			}, (*scout.Session).Analyze)
		}
	}
}

// TestWorkersDefaultIsGOMAXPROCS: the default worker count is the number of
// Ps, not of CPUs — a fork the scheduler cannot run beside the others only
// costs its build.
func TestWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := oneShot(t, faultyFabric(t, 7))
	if rep.EncodeStats.Checkers != 1 {
		t.Errorf("Workers 0 at GOMAXPROCS 1 forked %d checkers, want 1", rep.EncodeStats.Checkers)
	}
}

// TestWorkersFloor: a nonsensical worker count is the serial pipeline.
func TestWorkersFloor(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(17), workers: -3, steps: baselineOnly})
}
