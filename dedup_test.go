package scout_test

import (
	"maps"
	"regexp"
	"runtime"
	"testing"

	"scout"
	"scout/internal/compile"
	"scout/internal/equiv"
)

// dupState is the fabric's collected state with byte-equal clone switches,
// a supported input no generated workload produces. Every other switch
// (even ranks in ascending ID order) gets a twin 100,000 IDs up that shares
// its logical rule list, its TCAM snapshot and its pair-rule index entries,
// so each twin fingerprint-matches its original on both sides. The
// fabric's own deployment is not mutated.
func dupState(_ testing.TB, f *scout.Fabric) scout.State {
	st, d := fabricState(f), f.Deployment()
	dup := &scout.Deployment{BySwitch: maps.Clone(d.BySwitch), Provenance: d.Provenance, PairRules: maps.Clone(d.PairRules)}
	for i, sw := range sortedIDs(st.TCAM) {
		if i%2 != 0 {
			continue
		}
		twin := sw + 100000
		dup.BySwitch[twin], st.TCAM[twin] = d.BySwitch[sw], st.TCAM[sw]
		for sp, keys := range d.PairRules {
			if sp.Switch == sw {
				dup.PairRules[compile.SwitchPair{Switch: twin, Pair: sp.Pair}] = keys
			}
		}
	}
	st.Deployment = dup
	return st
}

// fabricState is the fabric's current collected state.
func fabricState(f *scout.Fabric) scout.State {
	return scout.State{
		Deployment: f.Deployment(),
		TCAM:       f.CollectAll(),
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
}

// expectedFolds derives a one-worker cold run's semantics-build counts
// from the state itself: the base freezes one root per distinct logical
// semantics fingerprint, and the single fork compiles the TCAM list of
// every switch no logical list warmed — a checker remembers logical lists
// only, so a twin's equal drifted list is compiled again.
func expectedFolds(st scout.State) (frozen, unwarmed int) {
	logicalSem := make(map[uint64]bool)
	for _, rules := range st.Deployment.BySwitch {
		logicalSem[equiv.SemanticsFingerprint(rules)] = true
	}
	for _, rules := range st.TCAM {
		if !logicalSem[equiv.SemanticsFingerprint(rules)] {
			unwarmed++
		}
	}
	return len(logicalSem), unwarmed
}

// TestDedupIdentityWithDuplicateSwitches: on a state with byte-equal
// duplicate switches, consistent and faulty pairs alike, the report at
// every worker count is the reference pipeline's, which checks every switch
// on a fresh checker of its own.
func TestDedupIdentityWithDuplicateSwitches(t *testing.T) {
	colds := make(map[int][]byte)
	for _, workers := range []int{1, runtime.NumCPU()} {
		equalsCold(t, coldCase{fabric: seeded(7), state: dupState, entry: viaState, workers: workers, steps: baselineOnly, colds: colds})
	}
}

// TestDedupErrorAttribution: when byte-equal switches' rule lists cannot
// be encoded, the error names a switch that owns the offending rule — each
// is checked on its own, and which of several concurrent failures is
// reported may vary.
func TestDedupErrorAttribution(t *testing.T) {
	_, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 2}).AnalyzeState(unencodable(4))
	if err == nil {
		t.Fatal("expected encoding error")
	}
	if !regexp.MustCompile(`equivalence check switch [1-4]:`).MatchString(err.Error()) {
		t.Errorf("error %q should be attributed to one of the four switches that own the rule", err)
	}
}
