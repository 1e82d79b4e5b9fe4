package scout_test

import (
	"bytes"
	"reflect"
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
// switches — the duplicate groups the whole-switch check dedup collapses
// (generated workloads produce all-distinct per-switch rule lists, so
// duplicates are built by cloning). Every other switch (even ranks in
// ascending ID order) gets a twin at ID+cloneOffset sharing its logical
// rule list, its TCAM snapshot, and its pair-rule index entries, so each
// twin fingerprint-matches its original on both sides. The fabric's own
// deployment is not mutated. The second return is the number of clones
// added.
func dupState(t testing.TB, f *scout.Fabric) (scout.State, int) {
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
	}, clones
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
// its own — no shared base, no dedup, no checker reuse across switches —
// and requires each of the report's per-switch verdicts to equal that
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

// expectedFolds derives a cold run's semantics-build counts from the
// state itself: the base freezes one root per distinct logical semantics
// fingerprint, and the forks fold only the TCAM lists of dedup-group
// representatives whose fingerprint no logical list warmed.
func expectedFolds(st scout.State) (frozen, unwarmed int) {
	logicalSem := make(map[uint64]bool)
	for _, rules := range st.Deployment.BySwitch {
		logicalSem[equiv.SemanticsFingerprint(rules)] = true
	}
	groups := make(map[[2]uint64]bool)
	unwarmedSem := make(map[uint64]bool)
	for sw, rules := range st.TCAM {
		key := [2]uint64{equiv.Fingerprint(st.Deployment.RulesFor(sw)), equiv.Fingerprint(rules)}
		if groups[key] {
			continue
		}
		groups[key] = true
		if fp := equiv.SemanticsFingerprint(rules); !logicalSem[fp] {
			unwarmedSem[fp] = true
		}
	}
	return len(logicalSem), len(unwarmedSem)
}

// TestDedupIdentityWithDuplicateSwitches is the whole-switch check-dedup
// identity regression: on a state with byte-equal duplicate switches
// (consistent and faulty groups alike), every per-switch verdict must be
// what a fresh checker of its own returns, and the report must be
// byte-identical at every worker count — dedup and the shared base move
// check work, never check results.
func TestDedupIdentityWithDuplicateSwitches(t *testing.T) {
	f := faultyFabric(t, 7)
	st, clones := dupState(t, f)

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

	// The plan's shape: every clone replays its original's verdict.
	es := analyze(2).EncodeStats
	if es.DedupReplays != clones {
		t.Errorf("DedupReplays = %d, want one per clone (%d)", es.DedupReplays, clones)
	}
	if es.DedupGroups != clones {
		t.Errorf("DedupGroups = %d, want one per cloned pair (%d)", es.DedupGroups, clones)
	}
	// Semantics sharing: each distinct logical list is frozen once in the
	// base and resolved from it, never re-folded per fork; the forks fold
	// exactly the drifted TCAM lists, once per dedup group.
	frozen, unwarmed := expectedFolds(st)
	if es.BaseSemantics != frozen {
		t.Errorf("base froze %d semantics roots, want %d (one per distinct logical list)", es.BaseSemantics, frozen)
	}
	if es.FoldMisses != unwarmed {
		t.Errorf("forks folded %d lists, want %d (one per distinct unwarmed list)", es.FoldMisses, unwarmed)
	}
	if es.FoldBaseHits == 0 {
		t.Errorf("checks never hit a frozen semantics root: %+v", es)
	}
}

// TestDedupErrorAttribution: when a dedup group's rule lists cannot be
// encoded, the error still names a switch that genuinely owns the
// offending rules (the group's representative).
func TestDedupErrorAttribution(t *testing.T) {
	badRule := scout.Rule{
		Match:  scout.RuleMatch{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 80},
		Action: scout.Allow,
	}
	bySwitch := make(map[scout.ObjectID][]scout.Rule)
	tcamState := make(map[scout.ObjectID][]scout.Rule)
	for sw := scout.ObjectID(1); sw <= 4; sw++ {
		bySwitch[sw] = []scout.Rule{badRule} // all four form one dedup group
		tcamState[sw] = nil
	}
	_, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 2}).AnalyzeState(scout.State{
		Deployment: &scout.Deployment{BySwitch: bySwitch},
		TCAM:       tcamState,
	})
	if err == nil {
		t.Fatal("expected encoding error")
	}
	// The group representative is the lowest member, switch 1.
	if want := "equivalence check switch 1:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q should be attributed to the group representative (switch 1)", err)
	}
}
