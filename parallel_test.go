package scout_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"scout"
)

// faultyFabric builds a seeded multi-switch fabric (the paper's 6-switch
// testbed spec) and injects a deterministic mix of faults so every
// checker path — missing rules, extra rules, partial faults — is
// exercised by the determinism tests.
func faultyFabric(t testing.TB, seed int64) *scout.Fabric {
	t.Helper()
	return faultyFabricOf(t, scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: seed})
}

// faultyFabricOf is faultyFabric on any spec: the same fault mix on a
// fabric generated and seeded from opts.Seed.
func faultyFabricOf(t testing.TB, spec scout.WorkloadSpec, opts scout.FabricOptions) *scout.Fabric {
	t.Helper()
	pol, topo, err := scout.GenerateWorkload(spec, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}

	filters := make([]scout.ObjectID, 0, len(pol.Filters))
	for id := range pol.Filters {
		filters = append(filters, id)
	}
	sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })
	if len(filters) < 2 {
		t.Fatalf("spec %q produced %d filters, need at least 2", spec.Name, len(filters))
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[0]), 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filters[1]), 0.5); err != nil {
		t.Fatal(err)
	}

	switches := topo.Switches()
	if _, err := f.EvictTCAM(switches[0], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CorruptTCAM(switches[len(switches)-1], 2, scout.CorruptDstEPG); err != nil {
		t.Fatal(err)
	}
	return f
}

// reportJSON analyzes the fabric and returns the report serialized with
// the wall-clock field zeroed, so byte comparison sees only pipeline
// output.
func reportJSON(t testing.TB, f *scout.Fabric, opts scout.AnalyzerOptions) []byte {
	t.Helper()
	rep, err := scout.NewAnalyzer(opts).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	rep.Elapsed = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelAnalyzeDeterministic is the regression test for the
// worker-pool pipeline: any worker count must produce a report
// byte-identical to the serial pipeline. At Workers>1 this covers every
// fanned-out stage — the per-switch check, the per-switch overlay
// annotation and localization, and the patch-based parallel controller
// augmentation — against the fully serial Workers=1 run.
func TestParallelAnalyzeDeterministic(t *testing.T) {
	f := faultyFabric(t, 7)
	serial := reportJSON(t, f, scout.AnalyzerOptions{Workers: 1})

	var probe struct {
		Consistent   bool
		TotalMissing int
	}
	if err := json.Unmarshal(serial, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Consistent || probe.TotalMissing == 0 {
		t.Fatal("fault injection produced a consistent fabric; test is vacuous")
	}

	for _, workers := range []int{2, 3, 4, 8, 0} {
		got := reportJSON(t, f, scout.AnalyzerOptions{Workers: workers})
		if !bytes.Equal(serial, got) {
			t.Errorf("Workers=%d report differs from serial:\nserial:   %s\nparallel: %s",
				workers, serial, got)
		}
	}
}

// TestSharedBaseIdentity is the identity regression for the frozen
// shared BDD base: every per-switch verdict an analysis through base+fork
// checkers reports must be what a fresh checker of its own returns, and
// the report must be byte-identical at worker counts 1, 2, and NumCPU —
// the base moves encoding work, never check results.
func TestSharedBaseIdentity(t *testing.T) {
	f := faultyFabric(t, 7)
	st := fabricState(f)
	var baseline []byte
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			assertMatchesFreshCheckers(t, "Workers=1", st, rep)
			baseline = marshalReport(t, rep)
		} else if !bytes.Equal(baseline, marshalReport(t, rep)) {
			t.Errorf("Workers=%d report differs from serial", workers)
		}
	}
}

// TestSharedBaseEncodeStats pins what the check stage reports about its
// encoding work: the base is built and consulted, what it shares does not
// depend on the worker count, and the forks compile only the drifted TCAM
// lists.
func TestSharedBaseEncodeStats(t *testing.T) {
	f := faultyFabric(t, 7)
	analyze := func(opts scout.AnalyzerOptions) *scout.Report {
		t.Helper()
		rep, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	frozen, unwarmed := expectedFolds(fabricState(f))
	var baseNodes int
	for _, workers := range []int{1, 2, 4} {
		es := analyze(scout.AnalyzerOptions{Workers: workers}).EncodeStats
		if es == nil {
			t.Fatal("BDD-checker analysis must report EncodeStats")
		}
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

	// Probe runs build no BDD checkers and carry no stats.
	if probes := analyze(scout.AnalyzerOptions{UseProbes: true}); probes.EncodeStats != nil {
		t.Error("probe analysis must not report EncodeStats")
	}
}

// TestParallelProbeAnalyzeDeterministic covers the probe-based
// observation source going through the same fan-out machinery.
func TestParallelProbeAnalyzeDeterministic(t *testing.T) {
	f := faultyFabric(t, 11)
	serial := reportJSON(t, f, scout.AnalyzerOptions{Workers: 1, UseProbes: true})
	for _, workers := range []int{2, 4, 0} {
		got := reportJSON(t, f, scout.AnalyzerOptions{Workers: workers, UseProbes: true})
		if !bytes.Equal(serial, got) {
			t.Errorf("UseProbes Workers=%d report differs from serial", workers)
		}
	}
}

// TestConcurrentAnalyzeCalls pins the Analyzer's concurrency promise now
// that nothing guards it but the absence of shared state: eight Analyze
// calls at once on one Analyzer, for either observation source, each return
// the serial run's bytes (and `go test -race` sees no shared write).
func TestConcurrentAnalyzeCalls(t *testing.T) {
	for _, probes := range []bool{false, true} {
		f := faultyFabric(t, 7)
		a := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 2, UseProbes: probes})
		serial, err := a.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalReport(t, serial)

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

// TestParallelCheckErrorPropagates forces an encoding error in the check
// stage and verifies the pool surfaces it instead of deadlocking or
// returning a partial report. The VRF id exceeds the checker's 16-bit
// field encoding, which is the only way a check itself can fail.
func TestParallelCheckErrorPropagates(t *testing.T) {
	badRule := scout.Rule{
		Match:  scout.RuleMatch{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 80},
		Action: scout.Allow,
	}
	bySwitch := make(map[scout.ObjectID][]scout.Rule)
	tcamState := make(map[scout.ObjectID][]scout.Rule)
	for sw := scout.ObjectID(1); sw <= 8; sw++ {
		bySwitch[sw] = []scout.Rule{badRule}
		tcamState[sw] = nil
	}
	st := scout.State{
		Deployment: &scout.Deployment{BySwitch: bySwitch},
		TCAM:       tcamState,
	}
	for _, workers := range []int{1, 4} {
		_, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
		if err == nil {
			t.Fatalf("Workers=%d: expected encoding error, got nil", workers)
		}
		// Which failing switch is reported is scheduler-dependent when
		// several fail at once; the contract is only that the error names
		// a switch.
		if !strings.Contains(err.Error(), "equivalence check switch") {
			t.Errorf("Workers=%d: error should name a failing switch, got: %v", workers, err)
		}
	}
}

// TestWorkersFloor checks that nonsensical worker counts degrade to the
// serial pipeline rather than panicking or spawning nothing.
func TestWorkersFloor(t *testing.T) {
	f := faultyFabric(t, 17)
	serial := reportJSON(t, f, scout.AnalyzerOptions{Workers: 1})
	got := reportJSON(t, f, scout.AnalyzerOptions{Workers: -3})
	if !bytes.Equal(serial, got) {
		t.Error("Workers=-3 report differs from serial")
	}
}
