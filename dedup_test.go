package scout_test

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"scout"
	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/rule"
)

// cloneOffset is the switch-ID offset dupState gives clone switches, far
// above generated topology IDs.
const cloneOffset = 100000

// dupState extends the fabric's collected state with byte-equal clone
// switches — duplicates are a supported input that no generated workload
// produces (their per-switch rule lists are all distinct), so they are
// built by cloning. Every other switch (even ranks in
// ascending ID order) gets a twin at ID+cloneOffset sharing its logical
// rule list, its TCAM snapshot, and its pair-rule index entries, so each
// twin fingerprint-matches its original on both sides. The fabric's own
// deployment is not mutated.
func dupState(t testing.TB, f *scout.Fabric) scout.State {
	t.Helper()
	d, tcam := f.Deployment(), f.CollectAll()
	switches := make([]object.ID, 0, len(tcam))
	for sw := range tcam {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	dup := &compile.Deployment{
		BySwitch:   make(map[object.ID][]rule.Rule, 2*len(d.BySwitch)),
		Provenance: d.Provenance,
		PairRules:  make(map[compile.SwitchPair][]rule.Key, 2*len(d.PairRules)),
	}
	for sw, rules := range d.BySwitch {
		dup.BySwitch[sw] = rules
	}
	pairsOf := make(map[object.ID][]compile.SwitchPair, len(d.BySwitch))
	for sp, keys := range d.PairRules {
		dup.PairRules[sp] = keys
		pairsOf[sp.Switch] = append(pairsOf[sp.Switch], sp)
	}
	clones := 0
	for i, sw := range switches {
		if i%2 != 0 {
			continue
		}
		clone := sw + cloneOffset
		dup.BySwitch[clone] = d.BySwitch[sw]
		tcam[clone] = tcam[sw]
		for _, sp := range pairsOf[sw] {
			dup.PairRules[compile.SwitchPair{Switch: clone, Pair: sp.Pair}] = d.PairRules[sp]
		}
		clones++
	}
	if clones == 0 {
		t.Fatal("fabric has no switches to clone")
	}
	return scout.State{
		Deployment: dup,
		TCAM:       tcam,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
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

// assertMatchesFreshCheckers is the independent baseline of the identity
// tests: it checks every switch of st with a fresh equiv.NewChecker() of
// its own — no shared base, no checker reuse across switches — and
// requires each of the report's per-switch verdicts to equal that
// check's.
func assertMatchesFreshCheckers(t testing.TB, label string, st scout.State, rep *scout.Report) {
	t.Helper()
	if len(rep.Switches) != len(st.TCAM) {
		t.Fatalf("%s: report covers %d switches, state has %d", label, len(rep.Switches), len(st.TCAM))
	}
	for _, sr := range rep.Switches {
		want, err := equiv.NewChecker().Check(st.Deployment.RulesFor(sr.Switch), st.TCAM[sr.Switch])
		if err != nil {
			t.Fatal(err)
		}
		if sr.Equivalent != want.Equivalent ||
			!reflect.DeepEqual(sr.MissingRules, want.MissingRules) ||
			!reflect.DeepEqual(sr.ExtraRules, want.ExtraRules) {
			t.Errorf("%s: switch %d verdict differs from a fresh checker's", label, sr.Switch)
		}
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

// TestDedupIdentityWithDuplicateSwitches is the duplicate-switch identity
// regression: on a state with byte-equal duplicate switches (consistent
// and faulty pairs alike), every per-switch verdict must be what a fresh
// checker of its own returns, and the report must be byte-identical at
// every worker count — the semantics memo moves check work, never check
// results.
func TestDedupIdentityWithDuplicateSwitches(t *testing.T) {
	f := faultyFabric(t, 7)
	st := dupState(t, f)

	analyze := func(workers int) *scout.Report {
		t.Helper()
		rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := analyze(1)
	assertMatchesFreshCheckers(t, "Workers=1", st, serial)
	baseline := marshalReport(t, serial)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := marshalReport(t, analyze(workers)); !bytes.Equal(baseline, got) {
			t.Errorf("Workers=%d report differs from serial", workers)
		}
	}

	// Semantics sharing, read at one worker: each distinct logical list is
	// frozen once in the base and resolved from it, never re-folded in the
	// fork; the fork compiles exactly the drifted TCAM lists, one per
	// drifted switch — nine here, twins included.
	es := serial.EncodeStats
	frozen, unwarmed := expectedFolds(st)
	if es.BaseSemantics != frozen {
		t.Errorf("base froze %d semantics roots, want %d (one per distinct logical list)", es.BaseSemantics, frozen)
	}
	if es.FoldMisses != unwarmed || unwarmed != 9 {
		t.Errorf("the fork folded %d lists, want %d = 9 (one per drifted list)", es.FoldMisses, unwarmed)
	}
	if es.FoldBaseHits == 0 {
		t.Errorf("checks never hit a frozen semantics root: %+v", es)
	}
}

// TestDedupErrorAttribution: when byte-equal switches' rule lists cannot
// be encoded, the error names a switch that owns the offending rule — each
// is checked on its own, and which of several concurrent failures is
// reported may vary.
func TestDedupErrorAttribution(t *testing.T) {
	badRule := scout.Rule{
		Match:  scout.RuleMatch{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 80},
		Action: scout.Allow,
	}
	bySwitch := make(map[scout.ObjectID][]scout.Rule)
	tcamState := make(map[scout.ObjectID][]scout.Rule)
	for sw := scout.ObjectID(1); sw <= 4; sw++ {
		bySwitch[sw] = []scout.Rule{badRule}
		tcamState[sw] = nil
	}
	_, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 2}).AnalyzeState(scout.State{
		Deployment: &scout.Deployment{BySwitch: bySwitch},
		TCAM:       tcamState,
	})
	if err == nil {
		t.Fatal("expected encoding error")
	}
	if !regexp.MustCompile(`equivalence check switch [1-4]:`).MatchString(err.Error()) {
		t.Errorf("error %q should be attributed to one of the four switches that own the rule", err)
	}
}
