package equiv

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// baseMatches extracts the distinct matches of the given rule lists in
// canonical order, the warmup pass in miniature.
func baseMatches(ruleSets ...[]rule.Rule) []rule.Match {
	set := make(map[rule.Match]struct{})
	for _, rules := range ruleSets {
		CollectMatches(set, rules)
	}
	matches := make([]rule.Match, 0, len(set))
	for m := range set {
		matches = append(matches, m)
	}
	SortMatches(matches)
	return matches
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

	base := NewBase(baseMatches(logical, deployed))
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

	// Every match was warmed, so the fork resolved all encodings from
	// the base.
	st := fork.Stats()
	if st.Misses != 0 {
		t.Errorf("fully warmed fork missed %d encodings", st.Misses)
	}
	if st.BaseHits == 0 {
		t.Error("fork never hit the base memo")
	}
}

// TestForkEncodesNovelMatches covers the copy-on-write side: matches
// absent from the base (a corrupted TCAM entry) are encoded into the
// fork's private delta, and only there.
func TestForkEncodesNovelMatches(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80))
	corrupted := withDeny(allowRule(1, 2, 99, 80)) // dst not in base

	base := NewBase(baseMatches(logical))
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
	if fork.Stats().Misses == 0 {
		t.Error("novel match must count as an encode miss")
	}
	if fork.DeltaSize() == 0 {
		t.Error("novel match must allocate delta nodes")
	}
	if base.Size() != base.snap.Size() {
		t.Error("base must be unchanged by fork work")
	}
}

// TestForkResetKeepsBase: Reset discards only the delta; the base stays
// warm and subsequent checks still hit it. Match encodings are read only
// when a difference is attributed to rules, so the checked pair differs.
func TestForkResetKeepsBase(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443))
	drifted := withDeny(allowRule(1, 2, 3, 80))
	base := NewBase(baseMatches(logical))
	fork := base.NewChecker()

	if _, err := fork.Check(logical, drifted); err != nil {
		t.Fatal(err)
	}
	if fork.DeltaSize() == 0 {
		t.Fatal("check must build both lists' semantics in the delta")
	}
	fork.Reset()
	if fork.DeltaSize() != 0 {
		t.Errorf("Reset left %d delta nodes", fork.DeltaSize())
	}
	if fork.Size() != base.Size() {
		t.Errorf("post-Reset Size = %d, want base size %d", fork.Size(), base.Size())
	}
	before := fork.Stats().BaseHits
	rep, err := fork.Check(logical, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingRules) != 1 {
		t.Fatalf("MissingRules = %v, want the port-443 rule", rep.MissingRules)
	}
	if fork.Stats().BaseHits <= before {
		t.Error("post-Reset attribution must still hit the base memo")
	}
	if fork.Stats().Misses != 0 {
		t.Errorf("post-Reset checks re-encoded %d warmed matches", fork.Stats().Misses)
	}
}

// TestConcurrentForks runs many forks of one base concurrently (-race
// guards the lock-free shared reads) and checks they all agree with a
// serial standalone checker.
func TestConcurrentForks(t *testing.T) {
	logical := withDeny(
		allowRule(1, 2, 3, 80),
		allowRule(1, 3, 2, 443),
		allowRule(2, 4, 5, 8080),
	)
	deployed := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443))
	want, err := NewChecker().Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}

	base := NewBase(baseMatches(logical, deployed))
	const forks = 8
	var wg sync.WaitGroup
	reports := make([]*Report, forks)
	errs := make([]error, forks)
	for k := 0; k < forks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := base.NewChecker()
			for i := 0; i < 20; i++ {
				reports[k], errs[k] = c.Check(logical, deployed)
				if errs[k] != nil {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < forks; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !reflect.DeepEqual(want, reports[k]) {
			t.Errorf("fork %d report differs from standalone", k)
		}
	}
}

// TestNewBaseSkipsUnencodableMatches: the base is a cache; rules the
// encoding rejects are left to the owning switch's check to report.
func TestNewBaseSkipsUnencodableMatches(t *testing.T) {
	good := rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}
	inverted := rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80}
	base := NewBase([]rule.Match{good, inverted, good})
	if base.NumMatches() != 1 {
		t.Errorf("NumMatches = %d, want 1 (inverted skipped, duplicate collapsed)", base.NumMatches())
	}
	// The fork still surfaces the error when the bad rule is checked.
	fork := base.NewChecker()
	bad := []rule.Rule{{Match: inverted, Action: rule.Allow}}
	if _, err := fork.Check(bad, nil); err == nil {
		t.Error("fork must still report the encode error for the bad rule")
	}
}

// TestSortMatchesTotalOrder: the canonical order is deterministic and
// insensitive to input permutation.
func TestSortMatchesTotalOrder(t *testing.T) {
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
	base := NewBase(baseMatches(logical))
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
	if st.BaseNodes != base.Size() || st.BaseMatches != base.NumMatches() {
		t.Errorf("base counters wrong: %+v", st)
	}
	wantDelta := f1.DeltaSize() + f2.DeltaSize()
	if st.DeltaNodes != wantDelta {
		t.Errorf("DeltaNodes = %d, want %d", st.DeltaNodes, wantDelta)
	}
	if st.TotalNodes() != st.BaseNodes+st.DeltaNodes {
		t.Error("TotalNodes must be base + delta")
	}
	if st.Hits() != st.BaseHits+st.LocalHits {
		t.Error("Hits must be base + local")
	}
	if st.BaseHits == 0 {
		t.Error("warmed checks must register base hits")
	}
}

// TestDeploymentFingerprint: stable under map iteration, sensitive to
// any switch's rule change.
func TestDeploymentFingerprint(t *testing.T) {
	bySwitch := map[object.ID][]rule.Rule{
		1: withDeny(allowRule(1, 2, 3, 80)),
		2: withDeny(allowRule(1, 3, 2, 443)),
		9: nil,
	}
	fp := DeploymentFingerprint(bySwitch)
	for i := 0; i < 10; i++ {
		if DeploymentFingerprint(bySwitch) != fp {
			t.Fatal("fingerprint unstable across calls")
		}
	}
	mutated := map[object.ID][]rule.Rule{
		1: bySwitch[1],
		2: withDeny(allowRule(1, 3, 2, 8443)),
		9: nil,
	}
	if DeploymentFingerprint(mutated) == fp {
		t.Error("rule change must move the fingerprint")
	}
	moved := map[object.ID][]rule.Rule{
		2: bySwitch[1],
		1: bySwitch[2],
		9: nil,
	}
	if DeploymentFingerprint(moved) == fp {
		t.Error("swapping switches' rule lists must move the fingerprint")
	}
}
