package equiv

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// newBase freezes the given rule lists' semantics roots, the warmup pass
// in miniature.
func newBase(lists ...[]rule.Rule) *Base {
	return NewBaseWith(nil, lists...)
}

// TestForkReportMatchesStandalone is the core interchangeability
// contract: a fork of a warmed base and a standalone checker produce
// deeply equal reports on every checker path (equivalent, missing,
// extra, partial overlap).
func TestForkReportMatchesStandalone(t *testing.T) {
	logical := withDeny(
		allowRule(1, 2, 3, 80, object.Filter(9)),
		allowRule(1, 3, 2, 443),
		allowRule(2, 4, 5, 8080),
	)
	deployed := withDeny(
		allowRule(1, 2, 3, 80),
		allowRule(7, 7, 7, 22), // extra
	)

	base := newBase(logical)
	fork := base.NewChecker()
	standalone := NewChecker()

	pairs := [][2][]rule.Rule{
		{logical, logical},
		{logical, deployed},
		{deployed, logical},
		{nil, deployed},
	}
	for i, p := range pairs {
		want, err := standalone.Check(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := fork.Check(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("pair %d: fork report %+v differs from standalone %+v", i, got, want)
		}
	}

	// The logical list was warmed, so each of its four appearances resolved
	// from the base. The deployed list compiled as the T side of pair 1 and
	// was not remembered, compiled again as the L side of pair 2 and was,
	// so pair 3's T side found it in the fork's memo; the empty list
	// compiled once.
	st := fork.Stats()
	if st.FoldBaseHits != 4 {
		t.Errorf("FoldBaseHits = %d, want 4", st.FoldBaseHits)
	}
	if st.FoldMisses != 3 {
		t.Errorf("FoldMisses = %d, want 3 (deployed as T, deployed as L, empty)", st.FoldMisses)
	}
	if st.FoldLocalHits != 1 {
		t.Errorf("FoldLocalHits = %d, want 1 (deployed as T after it was an L)", st.FoldLocalHits)
	}
}

// TestForkEncodesNovelMatches covers the copy-on-write side: a list whose
// match the base never saw (a corrupted TCAM entry) compiles into the
// fork's private delta, and only there — and attributing the difference
// to rules builds nothing on top of it.
func TestForkEncodesNovelMatches(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80))
	corrupted := withDeny(allowRule(1, 2, 99, 80)) // dst not in base

	base := newBase(logical)
	baseSize := base.Size()
	fork := base.NewChecker()

	want, err := NewChecker().Check(logical, corrupted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.Check(logical, corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fork report %+v differs from standalone %+v", got, want)
	}
	if st := fork.Stats(); st.FoldMisses != 1 || st.FoldBaseHits != 1 {
		t.Errorf("fold counters %+v, want the corrupted list missed and the logical one hit", st)
	}
	if fork.DeltaSize() == 0 {
		t.Error("novel list must allocate delta nodes")
	}
	if base.Size() != baseSize {
		t.Error("base must be unchanged by fork work")
	}
	// The delta is the corrupted list's diagram and the two differences:
	// re-attributing them (every root a memo hit) adds nothing.
	delta := fork.DeltaSize()
	if _, err := fork.Check(logical, corrupted); err != nil {
		t.Fatal(err)
	}
	if fork.DeltaSize() != delta {
		t.Errorf("re-check grew the delta %d -> %d", delta, fork.DeltaSize())
	}
}

// TestForkResetKeepsBase: Reset discards only the delta; the base stays
// warm and subsequent checks still hit it.
func TestForkResetKeepsBase(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443))
	drifted := withDeny(allowRule(1, 2, 3, 80))
	base := newBase(logical)
	fork := base.NewChecker()

	if _, err := fork.Check(logical, drifted); err != nil {
		t.Fatal(err)
	}
	if fork.DeltaSize() == 0 {
		t.Fatal("check must build the drifted list's semantics in the delta")
	}
	fork.Reset()
	if fork.DeltaSize() != 0 {
		t.Errorf("Reset left %d delta nodes", fork.DeltaSize())
	}
	if fork.Size() != base.Size() {
		t.Errorf("post-Reset Size = %d, want base size %d", fork.Size(), base.Size())
	}
	before := fork.Stats()
	rep, err := fork.Check(logical, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingRules) != 1 {
		t.Fatalf("MissingRules = %v, want the port-443 rule", rep.MissingRules)
	}
	after := fork.Stats()
	if after.FoldBaseHits != before.FoldBaseHits+1 {
		t.Error("post-Reset check must still resolve the warmed list from the base")
	}
	if after.FoldMisses != before.FoldMisses+1 {
		t.Errorf("post-Reset check compiled %d lists, want only the drifted one", after.FoldMisses-before.FoldMisses)
	}
}

// TestConcurrentForks runs many forks of one base concurrently (-race
// guards the lock-free shared reads: the snapshot's tables and the frozen
// compile memo, which every drifted list's compile reads) and checks they
// all agree with a serial standalone checker.
func TestConcurrentForks(t *testing.T) {
	logical := withDeny(
		allowRule(1, 2, 3, 80),
		allowRule(1, 3, 2, 443),
		allowRule(2, 4, 5, 8080),
		allowRule(2, 5, 4, 8080),
	)
	// One drifted TCAM per dropped rule: each compiles in the fork, its
	// surviving groups' tails and tries found in the base's memo.
	var drifted [][]rule.Rule
	var want []*Report
	for drop := 0; drop < len(logical)-1; drop++ {
		d := append(append([]rule.Rule(nil), logical[:drop]...), logical[drop+1:]...)
		rep, err := NewChecker().Check(logical, d)
		if err != nil {
			t.Fatal(err)
		}
		drifted, want = append(drifted, d), append(want, rep)
	}

	base := newBase(logical)
	if len(base.memo) == 0 {
		t.Fatal("the base froze no compile memo for the forks to read")
	}
	const forks = 8
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for k := 0; k < forks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := base.NewChecker()
			for i := 0; i < 20; i++ {
				j := (i + k) % len(drifted)
				rep, err := c.Check(logical, drifted[j])
				if err != nil {
					errs[k] = err
					return
				}
				if !reflect.DeepEqual(want[j], rep) {
					t.Errorf("fork %d, drifted list %d: report differs from standalone", k, j)
				}
				if i%7 == 6 {
					c.Reset() // compile them again, through the frozen memo again
				}
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < forks; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
	}
}

// TestNewBaseSkipsUnencodableMatches: the deprecated NewBase ignores its
// matches — encodable or not, they build nothing — and rules the encoding
// rejects are left to the owning switch's check to report.
func TestNewBaseSkipsUnencodableMatches(t *testing.T) {
	good := rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}
	inverted := rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80}
	base := NewBase([]rule.Match{good, inverted, good})
	if base.NumMatches() != 0 || base.Size() != 2 {
		t.Errorf("NumMatches = %d, Size = %d, want 0 and the two terminals", base.NumMatches(), base.Size())
	}
	// The fork still surfaces the error when the bad rule is checked.
	fork := base.NewChecker()
	bad := []rule.Rule{{Match: inverted, Action: rule.Allow}}
	if _, err := fork.Check(bad, nil); err == nil {
		t.Error("fork must still report the encode error for the bad rule")
	}
}

// TestSortMatchesTotalOrder: the canonical order is deterministic and
// insensitive to input permutation, and CollectMatches gathers each
// distinct match once.
func TestSortMatchesTotalOrder(t *testing.T) {
	set := map[rule.Match]struct{}{}
	CollectMatches(set, withDeny(allowRule(1, 2, 3, 80), allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443)))
	if len(set) != 3 {
		t.Errorf("CollectMatches gathered %d matches, want 3 (two allows and the deny)", len(set))
	}
	matches := []rule.Match{
		{VRF: 2, SrcEPG: 1, DstEPG: 1, PortLo: 0, PortHi: rule.PortMax},
		{VRF: 1, SrcEPG: 9, DstEPG: 1, PortLo: 80, PortHi: 80},
		{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80},
		{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80, WildcardDst: true},
		{WildcardVRF: true, WildcardSrc: true, WildcardDst: true, PortHi: rule.PortMax},
	}
	a := append([]rule.Match(nil), matches...)
	b := []rule.Match{a[4], a[2], a[0], a[3], a[1]}
	SortMatches(a)
	SortMatches(b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sort not canonical:\n%v\n%v", a, b)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return matchLess(a[i], a[j]) }) {
		t.Error("result not sorted under matchLess")
	}
	for i := 1; i < len(a); i++ {
		if matchLess(a[i], a[i-1]) {
			t.Error("matchLess violates antisymmetry on sorted output")
		}
	}
}

// TestAggregateEncodeStats sums counters across forks and tolerates nil
// slots.
func TestAggregateEncodeStats(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80))
	base := newBase(logical)
	f1, f2 := base.NewChecker(), base.NewChecker()
	if _, err := f1.Check(logical, logical); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Check(logical, nil); err != nil {
		t.Fatal(err)
	}
	st := AggregateEncodeStats(base, []*Checker{f1, nil, f2})
	if st.Checkers != 2 {
		t.Errorf("Checkers = %d, want 2", st.Checkers)
	}
	if st.BaseNodes != base.Size() || st.BaseSemantics != base.NumSemantics() {
		t.Errorf("base counters wrong: %+v", st)
	}
	wantDelta := f1.DeltaSize() + f2.DeltaSize()
	if st.DeltaNodes != wantDelta {
		t.Errorf("DeltaNodes = %d, want %d", st.DeltaNodes, wantDelta)
	}
	if st.FoldHits() != st.FoldBaseHits+st.FoldLocalHits {
		t.Error("FoldHits must be base + local")
	}
	if st.FoldBaseHits != 3 || st.FoldMisses != 1 {
		t.Errorf("fold counters %+v, want 3 base hits (the warmed list) and 1 miss (the empty list)", st)
	}
}

// TestDeploymentFingerprint: stable under map iteration, sensitive to
// any switch's rule change.
func TestDeploymentFingerprint(t *testing.T) {
	deploymentFP := func(bySwitch map[object.ID][]rule.Rule) uint64 {
		_, fp := DeploymentFingerprints(bySwitch)
		return fp
	}
	bySwitch := map[object.ID][]rule.Rule{
		1: withDeny(allowRule(1, 2, 3, 80)),
		2: withDeny(allowRule(1, 3, 2, 443)),
		9: nil,
	}
	fp := deploymentFP(bySwitch)
	for i := 0; i < 10; i++ {
		if deploymentFP(bySwitch) != fp {
			t.Fatal("fingerprint unstable across calls")
		}
	}
	mutated := map[object.ID][]rule.Rule{
		1: bySwitch[1],
		2: withDeny(allowRule(1, 3, 2, 8443)),
		9: nil,
	}
	if deploymentFP(mutated) == fp {
		t.Error("rule change must move the fingerprint")
	}
	moved := map[object.ID][]rule.Rule{
		2: bySwitch[1],
		1: bySwitch[2],
		9: nil,
	}
	if deploymentFP(moved) == fp {
		t.Error("swapping switches' rule lists must move the fingerprint")
	}
}
