package scout_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"testing"

	"scout"
)

// faultyFabric builds a seeded multi-switch fabric (the paper's 6-switch
// testbed spec) and injects a deterministic mix of faults so every
// checker path — missing rules, extra rules, partial faults — is
// exercised by the determinism tests.
func faultyFabric(t testing.TB, seed int64) *scout.Fabric {
	t.Helper()
	pol, topo, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: seed})
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
		t.Fatalf("testbed spec produced %d filters, need at least 2", len(filters))
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
// sharded stage — the per-switch check fan-out, the sharded
// controller-model build (merged in ascending switch-ID order), and the
// patch-based parallel controller augmentation — against the fully
// serial Workers=1 run.
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
// shared BDD base: analyses through base+fork checkers and through
// private per-worker checkers must produce byte-identical reports at
// worker counts 1, 2, and NumCPU — the base moves encoding work, never
// check results.
func TestSharedBaseIdentity(t *testing.T) {
	f := faultyFabric(t, 7)
	baseline := reportJSON(t, f, scout.AnalyzerOptions{Workers: 1, PrivateCheckers: true})
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, private := range []bool{false, true} {
			got := reportJSON(t, f, scout.AnalyzerOptions{Workers: workers, PrivateCheckers: private})
			if !bytes.Equal(baseline, got) {
				t.Errorf("Workers=%d PrivateCheckers=%v report differs from serial private baseline",
					workers, private)
			}
		}
	}
}

// TestSharedBaseEncodeStats pins the observable difference between the
// two checker modes: shared-base runs report the base and resolve warmed
// semantics roots from it; private runs compile every list per worker.
func TestSharedBaseEncodeStats(t *testing.T) {
	f := faultyFabric(t, 7)
	analyze := func(opts scout.AnalyzerOptions) *scout.Report {
		t.Helper()
		rep, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.EncodeStats == nil {
			t.Fatal("BDD-checker analysis must report EncodeStats")
		}
		return rep
	}

	shared := analyze(scout.AnalyzerOptions{Workers: 4}).EncodeStats
	private := analyze(scout.AnalyzerOptions{Workers: 4, PrivateCheckers: true}).EncodeStats

	if shared.BaseNodes == 0 || shared.BaseSemantics == 0 {
		t.Errorf("shared mode must build a base: %+v", shared)
	}
	if shared.FoldBaseHits == 0 {
		t.Errorf("shared mode must resolve semantics roots from the base: %+v", shared)
	}
	if private.BaseNodes != 0 || private.BaseSemantics != 0 || private.FoldBaseHits != 0 {
		t.Errorf("private mode must not touch a base: %+v", private)
	}
	if private.FoldMisses == 0 {
		t.Errorf("private mode must compile from scratch: %+v", private)
	}
	// The headline claim: with the base, a warmed list is never
	// re-compiled per worker — a shared run's from-scratch compiles are
	// only the drifted TCAM lists, and its total node construction never
	// exceeds the private mode's. (Strict reduction depends on how the
	// scheduler spreads switches across workers; the foldshare experiment
	// pins the sharing on a spec built to show it.)
	if shared.FoldMisses >= private.FoldMisses {
		t.Errorf("shared mode compiled %d lists, private %d — base not consulted",
			shared.FoldMisses, private.FoldMisses)
	}
	// 10% slack: which worker checks which switch is scheduling-
	// dependent, and the paths two drifted lists share are interned once
	// per fork that compiles one of them.
	if shared.TotalNodes() > private.TotalNodes()+private.TotalNodes()/10 {
		t.Errorf("shared total nodes %d exceed private total %d",
			shared.TotalNodes(), private.TotalNodes())
	}

	// Modes without BDD checkers carry no stats.
	naive, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseNaiveChecker: true}).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if naive.EncodeStats != nil {
		t.Error("naive-checker analysis must not report EncodeStats")
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

// TestParallelNaiveCheckerDeterministic covers the ablation checker,
// which shares the pool but ignores the per-worker BDD checker.
func TestParallelNaiveCheckerDeterministic(t *testing.T) {
	f := faultyFabric(t, 13)
	serial := reportJSON(t, f, scout.AnalyzerOptions{Workers: 1, UseNaiveChecker: true})
	for _, workers := range []int{4, 0} {
		got := reportJSON(t, f, scout.AnalyzerOptions{Workers: workers, UseNaiveChecker: true})
		if !bytes.Equal(serial, got) {
			t.Errorf("UseNaiveChecker Workers=%d report differs from serial", workers)
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
