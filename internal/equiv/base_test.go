package equiv

import (
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// Inputs the runner cannot draw: what a fork of a base compiles and where
// its nodes land, what Reset and a fingerprint collision do, the
// fingerprints' sensitivity, and the node-count bounds of the compiler and
// the walk.

// TestForkReportMatchesStandalone: a fork of a warmed base reports what a
// fork of an empty base reports on every path (equivalent, missing, extra,
// empty), and compiles both lists of each of the four checks. The logical
// list was warmed, so compiling it twice beside itself finds every node in
// the snapshot and adds none to the delta.
func TestForkReportMatchesStandalone(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80, object.Filter(9)), allowRule(1, 3, 2, 443), allowRule(2, 4, 5, 8080))
	deployed := withDeny(allowRule(1, 2, 3, 80), allowRule(7, 7, 7, 22))
	fork, cold := newBase(logical).NewChecker(), emptyFork()
	for i, p := range [][2][]rule.Rule{{logical, logical}, {logical, deployed}, {deployed, logical}, {nil, deployed}} {
		want, err := cold.Check(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fork.Check(p[0], p[1]); err != nil || !reflect.DeepEqual(want, got) {
			t.Errorf("pair %d: fork report %+v (%v), empty base's fork %+v", i, got, err, want)
		}
		if i == 0 && fork.DeltaSize() != 0 {
			t.Errorf("the warmed list beside itself added %d delta nodes", fork.DeltaSize())
		}
	}
	if st := fork.Stats(); st.FoldBaseHits != 0 || st.FoldMisses != 8 {
		t.Errorf("fold counters %+v, want 8 compiles", st)
	}
}

// TestForkEncodesNovelMatches: a list whose match the base never saw (a
// corrupted TCAM entry) compiles into the fork's delta, and only there, and
// re-attributing the difference (every root a memo hit) builds nothing.
func TestForkEncodesNovelMatches(t *testing.T) {
	logical, corrupted := withDeny(allowRule(1, 2, 3, 80)), withDeny(allowRule(1, 2, 99, 80))
	base := newBase(logical)
	size, fork := base.Size(), base.NewChecker()
	checkPair(t, logical, corrupted, "missing [0] extra [0]")
	if _, err := fork.Check(logical, corrupted); err != nil {
		t.Fatal(err)
	}
	if st := fork.Stats(); st.FoldMisses != 2 || fork.DeltaSize() == 0 || base.Size() != size {
		t.Errorf("fold counters %+v, delta %d, base %d -> %d: want the corrupted list compiled in the delta alone", st, fork.DeltaSize(), size, base.Size())
	}
	delta := fork.DeltaSize()
	if _, err := fork.Check(logical, corrupted); err != nil || fork.DeltaSize() != delta {
		t.Errorf("re-check grew the delta %d -> %d (%v)", delta, fork.DeltaSize(), err)
	}
}

// TestForkResetKeepsBase: Reset discards only the delta; the base stays
// warm, so the next check compiles both lists again and reports alike.
func TestForkResetKeepsBase(t *testing.T) {
	logical, drifted := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443)), withDeny(allowRule(1, 2, 3, 80))
	fork := newBase(logical).NewChecker()
	if _, err := fork.Check(logical, drifted); err != nil || fork.DeltaSize() == 0 {
		t.Fatalf("the check built no delta (%v)", err)
	}
	fork.Reset()
	before := fork.Stats()
	rep, err := fork.Check(logical, drifted)
	if got := verdict(rep, err, logical, drifted); got != "missing [1] extra []" {
		t.Fatalf("after Reset: %s", got)
	}
	if after := fork.Stats(); after.FoldMisses != before.FoldMisses+2 {
		t.Errorf("after Reset: %+v -> %+v, want two compiles", before, after)
	}
}

// TestCheckerReset: Reset returns a fork of an empty base to cold, and it
// reports what it did before.
func TestCheckerReset(t *testing.T) {
	logical, deployed := withDeny(allowRule(101, 1, 2, 80), allowRule(101, 3, 4, 443)), withDeny(allowRule(101, 1, 2, 80))
	c := emptyFork()
	fresh := c.DeltaSize()
	before, err := c.Check(logical, deployed)
	if err != nil || c.DeltaSize() <= fresh {
		t.Fatalf("a check built %d nodes over %d (%v)", c.DeltaSize(), fresh, err)
	}
	c.Reset()
	if c.DeltaSize() != fresh {
		t.Errorf("DeltaSize after Reset = %d, want %d", c.DeltaSize(), fresh)
	}
	if after, err := c.Check(logical, deployed); err != nil || !reflect.DeepEqual(before, after) {
		t.Errorf("Reset changed the report: %+v, then %+v (%v)", before, after, err)
	}
}

// TestConcurrentForks runs forks of one base concurrently (-race guards
// the lock-free shared reads of the snapshot's tables, which every compile
// interns through) and checks they agree with a serial fork of an empty
// base.
func TestConcurrentForks(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443), allowRule(2, 4, 5, 8080), allowRule(2, 5, 4, 8080))
	// One drifted TCAM per dropped rule: each compiles in the fork, its
	// surviving groups' nodes found in the snapshot.
	var drifted [][]rule.Rule
	var want []*Report
	for drop := 0; drop < len(logical)-1; drop++ {
		d := append(append([]rule.Rule(nil), logical[:drop]...), logical[drop+1:]...)
		rep, err := emptyFork().Check(logical, d)
		if err != nil {
			t.Fatal(err)
		}
		drifted, want = append(drifted, d), append(want, rep)
	}
	base := newBase(logical)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := base.NewChecker()
			for i := 0; i < 20; i++ {
				j := (i + k) % len(drifted)
				if rep, err := c.Check(logical, drifted[j]); err != nil || !reflect.DeepEqual(want[j], rep) {
					t.Errorf("fork %d, drifted list %d: report %+v (%v) differs from the empty base's fork", k, j, rep, err)
					return
				}
				if i%7 == 6 {
					c.Reset() // compile them again, through the snapshot again
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestNewBaseSkipsUnencodableMatches: the deprecated NewBase ignores its
// matches, encodable or not, and the owning switch's check reports a rule
// the encoding rejects.
func TestNewBaseSkipsUnencodableMatches(t *testing.T) {
	inverted := rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80}
	base := NewBase([]rule.Match{{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}, inverted})
	if base.NumMatches() != 0 || base.Size() != 2 {
		t.Errorf("NumMatches = %d, Size = %d, want 0 and the two terminals", base.NumMatches(), base.Size())
	}
	if _, err := base.NewChecker().Check([]rule.Rule{{Match: inverted, Action: rule.Allow}}, nil); err == nil {
		t.Error("the fork must report the encode error for the bad rule")
	}
}

// TestNewBaseSkipsUnfoldableLists: a list whose rules cannot encode
// contributes no frozen root, and the owning switch's check still reports
// the error.
func TestNewBaseSkipsUnfoldableLists(t *testing.T) {
	good := withDeny(allowRule(1, 2, 3, 80))
	bad := []rule.Rule{{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80}, Action: rule.Allow}}
	base := newBase(good, bad, good)
	if base.NumSemantics() != 1 {
		t.Errorf("NumSemantics = %d, want 1 (bad list skipped, duplicate collapsed)", base.NumSemantics())
	}
	if _, err := base.NewChecker().Check(bad, nil); err == nil {
		t.Error("the fork must report the encode error for the bad list")
	}
}

// TestSortMatchesTotalOrder: the canonical order is rule.CompareMatch's,
// so it is insensitive to input permutation, and CollectMatches gathers
// each distinct match once.
func TestSortMatchesTotalOrder(t *testing.T) {
	set := map[rule.Match]struct{}{}
	CollectMatches(set, withDeny(allowRule(1, 2, 3, 80), allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443)))
	if len(set) != 3 {
		t.Errorf("CollectMatches gathered %d matches, want 3 (two allows and the deny)", len(set))
	}
	in := []rule.Match{
		{VRF: 2, SrcEPG: 1, DstEPG: 1, PortLo: 0, PortHi: rule.PortMax},
		{VRF: 1, SrcEPG: 9, DstEPG: 1, PortLo: 80, PortHi: 80},
		{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80},
		{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80, WildcardDst: true},
		{WildcardVRF: true, WildcardSrc: true, WildcardDst: true, PortHi: rule.PortMax},
	}
	a, b := slices.Clone(in), []rule.Match{in[4], in[2], in[0], in[3], in[1]}
	SortMatches(a)
	SortMatches(b)
	want := []rule.Match{in[4], in[2], in[3], in[1], in[0]}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) || !slices.IsSortedFunc(a, func(x, y rule.Match) int { return rule.CompareMatch(&x, &y) }) {
		t.Errorf("sort not canonical:\n%v\n%v\nwant %v", a, b, want)
	}
}

// TestDeploymentFingerprint: stable across calls, sensitive to any
// switch's rules and to which switch holds which list.
func TestDeploymentFingerprint(t *testing.T) {
	fp := func(bySwitch map[object.ID][]rule.Rule) uint64 {
		_, fp := DeploymentFingerprints(bySwitch)
		return fp
	}
	a, b := withDeny(allowRule(1, 2, 3, 80)), withDeny(allowRule(1, 3, 2, 443))
	want := fp(map[object.ID][]rule.Rule{1: a, 2: b, 9: nil})
	for i := 0; i < 10; i++ {
		if fp(map[object.ID][]rule.Rule{1: a, 2: b, 9: nil}) != want {
			t.Fatal("fingerprint unstable across calls")
		}
	}
	if fp(map[object.ID][]rule.Rule{1: a, 2: withDeny(allowRule(1, 3, 2, 8443)), 9: nil}) == want {
		t.Error("a rule change must move the fingerprint")
	}
	if fp(map[object.ID][]rule.Rule{2: a, 1: b, 9: nil}) == want {
		t.Error("swapping switches' rule lists must move the fingerprint")
	}
}

// fingerprintEdits are edits of a three-rule list, each with whether
// Fingerprint and SemanticsFingerprint must see it. Priority and
// provenance cannot influence the fold, so the semantics key ignores them,
// which lets a provenance-free TCAM collection share its logical list's
// key.
var fingerprintEdits = []struct {
	name      string
	edit      func([]rule.Rule) []rule.Rule
	fp, semFP bool
}{
	{"swap order", func(rs []rule.Rule) []rule.Rule { rs[0], rs[1] = rs[1], rs[0]; return rs }, true, true},
	{"change vrf", func(rs []rule.Rule) []rule.Rule { rs[0].Match.VRF = 102; return rs }, true, true},
	{"change src", func(rs []rule.Rule) []rule.Rule { rs[0].Match.SrcEPG = 9; return rs }, true, true},
	{"change dst", func(rs []rule.Rule) []rule.Rule { rs[0].Match.DstEPG = 9; return rs }, true, true},
	{"change proto", func(rs []rule.Rule) []rule.Rule { rs[0].Match.Proto = rule.ProtoUDP; return rs }, true, true},
	{"change port", func(rs []rule.Rule) []rule.Rule { rs[0].Match.PortHi = 81; return rs }, true, true},
	{"change action", func(rs []rule.Rule) []rule.Rule { rs[0].Action = rule.Deny; return rs }, true, true},
	{"set wildcard", func(rs []rule.Rule) []rule.Rule { rs[0].Match.WildcardSrc = true; return rs }, true, true},
	{"drop rule", func(rs []rule.Rule) []rule.Rule { return rs[1:] }, true, true},
	{"change priority", func(rs []rule.Rule) []rule.Rule { rs[0].Priority++; return rs }, true, false},
	{"change provenance", func(rs []rule.Rule) []rule.Rule { rs[0].Provenance = []object.Ref{object.Filter(5001)}; return rs }, true, false},
	{"drop provenance", func(rs []rule.Rule) []rule.Rule { rs[0].Provenance = nil; return rs }, true, false},
}

// checkFingerprint holds fp to the edits' column of moves: deterministic,
// nil and empty alike, moved exactly by the edits that must move it.
func checkFingerprint(t *testing.T, fp func([]rule.Rule) uint64, moves func(int) bool) {
	t.Helper()
	list := withDeny(allowRule(101, 1, 2, 80, object.Filter(5000)), allowRule(101, 2, 1, 80, object.Filter(5000)))
	want := fp(list)
	if fp(list) != want || fp(nil) != fp([]rule.Rule{}) {
		t.Fatal("fingerprint not deterministic, or nil and empty lists differ")
	}
	for i, e := range fingerprintEdits {
		if moved := fp(e.edit(oracle.CloneRules(list))) != want; moved != moves(i) {
			t.Errorf("%s: fingerprint moved %v, want %v", e.name, moved, moves(i))
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	checkFingerprint(t, Fingerprint, func(i int) bool { return fingerprintEdits[i].fp })
}

func TestSemanticsFingerprintCanonicalization(t *testing.T) {
	checkFingerprint(t, SemanticsFingerprint, func(i int) bool { return fingerprintEdits[i].semFP })
	list := withDeny(allowRule(1, 2, 3, 80))
	if SemanticsFingerprint(list) == Fingerprint(list) {
		t.Error("the semantics keyspace must be domain-separated from Fingerprint")
	}
}

// TestSemanticsFingerprintRandomizedCollisionFree: drawn lists — and
// permutations of one, the likeliest near-collisions — that differ in
// what the fold sees key apart (a collision at 64 bits would be a hashing
// bug).
func TestSemanticsFingerprintRandomizedCollisionFree(t *testing.T) {
	c := oracle.FromSeed(20260730)
	seen := make(map[uint64][]rule.Rule)
	record := func(rs []rule.Rule) {
		fp := SemanticsFingerprint(rs)
		if prev, ok := seen[fp]; ok && !semanticsEqual(prev, rs) {
			t.Fatalf("semantics fingerprint collision between distinct lists:\n%v\n%v", prev, rs)
		}
		seen[fp] = append([]rule.Rule(nil), rs...)
	}
	for i := 0; i < 2000; i++ {
		record(genRules(c, 1+c.Intn(12)))
	}
	perm := genRules(c, 8)
	for i := 0; i < 200; i++ {
		for j := len(perm) - 1; j > 0; j-- {
			k := c.Intn(j + 1)
			perm[j], perm[k] = perm[k], perm[j]
		}
		record(perm)
	}
	if len(seen) < 1900 {
		t.Fatalf("only %d distinct fingerprints recorded; the generator is degenerate", len(seen))
	}
}

// semanticsEqual reports whether two rule lists are equal in what the
// compiler consumes: same length, and each position's match and action
// agree (priority and provenance free).
func semanticsEqual(a, b []rule.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Match != b[i].Match || a[i].Action != b[i].Action {
			return false
		}
	}
	return true
}

// TestSemanticsBaseMissFoldsInDelta: a collected list absent from the base
// compiles into the fork's delta and is not remembered — a repeat compiles
// both lists again — and the base stays untouched; Reset discards the
// delta and leaves the snapshot warm.
func TestSemanticsBaseMissFoldsInDelta(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443), allowRule(2, 4, 5, 22))
	drifted := withDeny(allowRule(1, 2, 3, 80), allowRule(2, 4, 5, 22))
	base := newBase(logical)
	fork := base.NewChecker()
	first, err := fork.Check(logical, drifted)
	if err != nil {
		t.Fatal(err)
	}
	st := fork.Stats()
	if st.FoldMisses != 2 || fork.DeltaSize() == 0 || base.Size() != base.snap.Size() {
		t.Errorf("first check: %+v, delta %d; want both lists compiled, the drifted one in the delta", st, fork.DeltaSize())
	}
	if again, err := fork.Check(logical, drifted); err != nil || !reflect.DeepEqual(first, again) {
		t.Errorf("repeat check reported %+v (%v), first %+v", again, err, first)
	}
	st2 := fork.Stats()
	if st2.FoldMisses != st.FoldMisses+2 {
		t.Errorf("repeat check: %+v -> %+v; want both lists compiled again, not remembered", st, st2)
	}
	fork.Reset()
	if _, err := fork.Check(logical, drifted); err != nil {
		t.Fatal(err)
	}
	if st3 := fork.Stats(); st3.FoldMisses != st2.FoldMisses+2 {
		t.Errorf("post-Reset check: %+v -> %+v, want two compiles", st2, st3)
	}
}

// TestEqualCopyCompiles: a logical list equal to the one a base froze but
// not that slice reports what the base's slice gets (copyStep).
func TestEqualCopyCompiles(t *testing.T) { runCases(t, 17, 40, copyStep) }

// TestAttributeRejectsUnencodableRule: attribution reports the encoding's
// own error for an allow rule it cannot represent, and never encodes a
// deny rule.
func TestAttributeRejectsUnencodableRule(t *testing.T) {
	c := emptyFork()
	diff, err := c.compile(withDeny(allowRule(1, 2, 3, 80)))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []rule.Match{
		{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80},
		{VRF: 1, SrcEPG: maxID + 1, DstEPG: 3, PortHi: rule.PortMax},
	} {
		_, err := c.attribute([]rule.Rule{allowRule(1, 2, 3, 80), {Match: bad, Action: rule.Allow}}, diff)
		if want := checkMatch(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("attribute(%v) = %v, want %v", bad, err, want)
		}
		if _, err := c.attribute([]rule.Rule{{Match: bad, Action: rule.Deny}}, diff); err != nil {
			t.Errorf("deny rule %v: %v", bad, err)
		}
	}
}

// churnList builds n allow rules over a (vrf, src, dst) grid with one to
// three disjoint port ranges per cell, ending in the default deny.
func churnList(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		cell := i / 3
		r := allowRule(object.ID(1+cell%3), object.ID(10+cell/3%40), object.ID(100+cell/120), 0)
		r.Match.PortLo = uint16(1000 + 2000*(i%3))
		r.Match.PortHi = r.Match.PortLo + uint16(i%500)
		rules = append(rules, r)
	}
	return append(rules, rule.DefaultDeny())
}

// TestCompileChurnBoundedByEdit is the O(churn) gate, on node counts so it
// is deterministic: a fork of a base that froze a 6k-rule list compiles
// that list minus k rules into at most 2·k·NumVars delta nodes — the paths
// from the root to the k edited leaves — because every untouched subtree
// is found in the frozen unique table. A fork of an empty base pays for
// all of it.
func TestCompileChurnBoundedByEdit(t *testing.T) {
	const k = 4
	full := churnList(6000)
	base := newBase(full)
	drop := map[int]bool{700: true, 2199: true, 3698: true, 5197: true}
	var edited []rule.Rule
	for i, r := range full {
		if !drop[i] {
			edited = append(edited, r)
		}
	}
	fork := base.NewChecker()
	root, err := fork.compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if st := fork.Stats(); st.FoldMisses != 1 || base.snap.Contains(root) {
		t.Fatalf("the edited list did not compile in the fork: %+v", st)
	}
	if got, bound := fork.DeltaSize(), 2*k*NumVars; got == 0 || got > bound {
		t.Errorf("compiling a %d-rule edit of a %d-rule frozen list added %d delta nodes, want 1..%d", k, len(full), got, bound)
	}
	cold := emptyFork()
	if _, err := cold.compile(edited); err != nil || cold.DeltaSize() < 10*fork.DeltaSize() {
		t.Errorf("cold compile built %d nodes, warm %d (%v): the frozen base is not being reused", cold.DeltaSize(), fork.DeltaSize(), err)
	}
}

// TestMemoInvisibleOnProduction is the repository benchmark's input: the
// eight production-quarter lists frozen into one base, their four-rule
// evictions compiled in a fork. The memoized base is the memo-less one
// node for node — which, with its roots, is all the store's codec reads —
// and it is the size every PR since the direct compiler has
// reported. A checker of the base re-compiles a drifted list into the
// edit's paths alone.
func TestMemoInvisibleOnProduction(t *testing.T) {
	lists := productionQuarter(t, 42)
	tcams := make([][]rule.Rule, len(lists))
	for i, l := range lists {
		tcams[i] = evictFour(l)
	}
	plain, memod := checkMemoInvisible(t, lists, tcams)
	for i := 0; i < plain.Size(); i++ {
		pl, plo, phi := plain.NodeAt(i)
		if ml, mlo, mhi := memod.NodeAt(i); pl != ml || plo != mlo || phi != mhi {
			t.Fatalf("node %d: memo-less (%d, %d, %d), memoized (%d, %d, %d)", i, pl, plo, phi, ml, mlo, mhi)
		}
	}
	base := newBase(lists...)
	if got := base.Size(); got != 34938 || got != memod.Size() {
		t.Errorf("base holds %d nodes, want 34938 = the bare memoized compile's %d", got, memod.Size())
	}
	c := base.NewChecker()
	for i := range lists {
		if rep, err := c.Check(lists[i], tcams[i]); err != nil || len(rep.MissingRules) != 4 {
			t.Fatalf("switch %d: %v, report %+v", i, err, rep)
		}
	}
	if got, bound := c.DeltaSize(), len(lists)*2*4*NumVars; got > bound {
		t.Errorf("eight four-rule edits added %d delta nodes, want at most %d", got, bound)
	}
}

// editCells returns list with the port ranges of the given cells' rules
// (churnList puts three rules a cell) moved by shift: new tails under
// (VRF, src, dst) groups the list already had.
func editCells(list []rule.Rule, shift uint16, cells ...int) []rule.Rule {
	out := append([]rule.Rule(nil), list...)
	for _, cell := range cells {
		for i := 3 * cell; i < 3*cell+3; i++ {
			out[i].Match.PortLo += shift
			out[i].Match.PortHi += shift
		}
	}
	return out
}

// TestMemoDiesWithItsNodeIDs: a checker's private memo names delta nodes
// by ID, and Reset re-forks the delta, whose IDs then name other nodes. A
// list compiled after a Reset, which shares groups with the lists checked
// before it, must still come out as the oracle fold builds it in the same
// manager.
func TestMemoDiesWithItsNodeIDs(t *testing.T) {
	a := churnList(900)
	a1 := editCells(a, 7, 20, 140, 260)
	a2 := editCells(a, 11, 30, 150, 270)
	// a3 has the groups a1 edited, the groups a2 edited, and one of its own.
	a3 := editCells(editCells(a1, 11, 30, 150, 270), 13, 200)
	check := func(c *Checker, when string) {
		t.Helper()
		got, err := c.compile(a3)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := oracleSemantics(c.m.(*bdd.Manager), a3); err != nil || got != want {
			t.Fatalf("%s: compiled root %d, the fold builds %d in the same manager (%v)", when, got, want, err)
		}
		for _, pair := range [][2][]rule.Rule{{a, a3}, {a3, a1}, {a2, a3}} {
			rep, err := c.Check(pair[0], pair[1])
			if fresh, ferr := emptyFork().Check(pair[0], pair[1]); err != nil || ferr != nil || rep.Equivalent || !reflect.DeepEqual(rep, fresh) {
				t.Fatalf("%s: report differs from a fresh checker's (%v, %v)", when, err, ferr)
			}
		}
	}
	c := newBase(churnList(300)).NewChecker() // a prefix of a: the snapshot's nodes are in play too
	for _, d := range [][]rule.Rule{a1, a2} { // a2's nodes sit above a's and a1's difference
		if _, err := c.Check(a, d); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.memo) == 0 {
		t.Fatal("the checks left no private memo to go stale")
	}
	if c.Reset(); len(c.memo) != 0 {
		t.Error("Reset kept the private memo")
	}
	check(c, "after Reset")
}

// readCounter counts the walk's node reads.
type readCounter struct {
	applyBackend
	reads int
}

func (c *readCounter) NodeAt(n bdd.Node) (int32, bdd.Node, bdd.Node) {
	c.reads++
	return c.applyBackend.NodeAt(n)
}

// TestAttributeWalksBoundedPerRule: attributing a difference to n rules
// on one (VRF, src, dst) reads, rule by rule, at most the difference's
// VRF/src/dst and protocol nodes along the rule's own bits, the first port
// node and two nodes a port depth. The difference is every other rule, so
// half the walks find their port and half rule it out.
func TestAttributeWalksBoundedPerRule(t *testing.T) {
	const n = 64
	var rules, half []rule.Rule
	for i := 0; i < n; i++ {
		rules = append(rules, allowRule(7, 300, 4000, uint16(1000+3*i)))
		if i%2 == 0 {
			half = append(half, rules[i])
		}
	}
	m := &readCounter{applyBackend: bdd.NewManager(NumVars)}
	ch := newBase().newChecker(func() Backend { return m })
	diff, err := ch.compile(half)
	if err != nil {
		t.Fatal(err)
	}
	m.reads = 0
	got, err := ch.attribute(rules, diff)
	if err != nil || !reflect.DeepEqual(got, half) {
		t.Fatalf("attributed %v (%v), want the %d rules of the difference", got, err, len(half))
	}
	if bound := n * (portOff + 1 + 2*portBits); m.reads < n || m.reads > bound {
		t.Errorf("%d rules on one triple read %d nodes, want %d..%d: one walk each from the root", n, m.reads, n, bound)
	}
}

// TestMeetsBoundedByNodes: a difference of 64×64 disjoint (src, dst) cubes
// is 4096 paths over some 700 nodes, every source leading to one shared
// destination trie. A rule that wildcards both fields and misses all of
// them on the protocol has to exhaust it, and does so reading each node at
// most once, where a memo-less intersection visits it once per path.
// Missing on the port instead adds only the bounded port descent.
func TestMeetsBoundedByNodes(t *testing.T) {
	// 64 sources and 64 destinations, of even parity so that no two differ
	// in one bit and no two cubes merge into one path.
	var ids []int
	for c := oracle.FromSeed(9); len(ids) < 128; {
		if id := c.Intn(maxID + 1); bits.OnesCount(uint(id))%2 == 0 && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	var cubes []rule.Rule
	for _, s := range ids[:64] {
		for _, d := range ids[64:] {
			cubes = append(cubes, allowRule(1, object.ID(s), object.ID(d), 80))
		}
	}
	m := &readCounter{applyBackend: bdd.NewManager(NumVars)}
	diff, err := compileSemantics(m, cubes)
	if err != nil {
		t.Fatal(err)
	}
	nodes, paths := 0, map[bdd.Node]int{bdd.True: 1, bdd.False: 0}
	var count func(bdd.Node) int
	count = func(n bdd.Node) int {
		if p, ok := paths[n]; ok {
			return p
		}
		nodes++
		_, lo, hi := m.applyBackend.NodeAt(n)
		paths[n] = count(lo) + count(hi)
		return paths[n]
	}
	if npaths := count(diff); npaths != len(cubes) || nodes*2 > npaths {
		t.Fatalf("diagram has %d nodes and %d paths; want %d paths over far fewer nodes", nodes, npaths, len(cubes))
	}
	w := &meetWalk{m: m}
	wide := rule.Match{VRF: 1, WildcardSrc: true, WildcardDst: true, Proto: rule.ProtoUDP, PortHi: rule.PortMax}
	portMiss := rule.Match{VRF: 1, WildcardSrc: true, WildcardDst: true, Proto: rule.ProtoTCP, PortLo: 81, PortHi: 90}
	for _, tc := range []struct {
		name  string
		match rule.Match
		bound int
	}{{"protocol miss", wide, nodes}, {"port miss", portMiss, nodes + 2*portBits}} {
		m.reads = 0
		if w.meets(rule.Rule{Match: tc.match}, diff) {
			t.Fatalf("%s: walk found a meeting point", tc.name)
		}
		if m.reads > tc.bound {
			t.Errorf("%s: %d reads, want at most %d", tc.name, m.reads, tc.bound)
		}
	}
	// And it still finds the one cube a narrower rule does meet.
	hit := wide
	hit.Proto, hit.WildcardSrc, hit.SrcEPG = rule.ProtoTCP, false, object.ID(ids[63])
	if !w.meets(rule.Rule{Match: hit}, diff) {
		t.Error("walk missed a rule that covers 64 cubes")
	}
}

// TestRangeBDDBruteForce holds the oracle's comparator encoders to direct
// enumeration at small widths: every value of the field against drawn
// bounds — inverted and full ranges included — agrees with the arithmetic
// predicate, and a range has as many satisfying values as it spans.
func TestRangeBDDBruteForce(t *testing.T) {
	c := oracle.FromSeed(99)
	for _, width := range []int{1, 2, 3, 5, 8} {
		max := uint32(1)<<uint(width) - 1
		m := bdd.NewManager(width)
		pairs := [][2]uint32{{0, max}, {0, 0}, {max, max}, {max, 0}}
		for i := 0; i < 40; i++ {
			pairs = append(pairs, [2]uint32{uint32(c.Intn(int(max) + 1)), uint32(c.Intn(int(max) + 1))})
		}
		for _, p := range pairs {
			lo, hi := p[0], p[1]
			le, ge, rg := leBDD(m, 0, width, 0, hi), geBDD(m, 0, width, 0, lo), rangeBDD(m, 0, width, lo, hi)
			for v := uint32(0); v <= max; v++ {
				assign := assignBits(width, 0, width, v, c)
				if oracle.Eval(m, le, assign) != (v <= hi) || oracle.Eval(m, ge, assign) != (v >= lo) || oracle.Eval(m, rg, assign) != (lo <= v && v <= hi) {
					t.Fatalf("width=%d [%d, %d]: value %d misjudged", width, lo, hi, v)
				}
			}
			want := 0.0
			if lo <= hi {
				want = float64(hi - lo + 1)
			}
			if got := oracle.SatCount(m, width, rg); got != want {
				t.Fatalf("width=%d rangeBDD(%d,%d): SatCount = %v, want %v", width, lo, hi, got, want)
			}
		}
	}
}

// TestRangeBDDAtFieldOffset: at an offset inside a wider manager, as the
// checker's port field sits at portOff, bits outside the field are
// don't-cares.
func TestRangeBDDAtFieldOffset(t *testing.T) {
	const numVars, off, width = 12, 3, 5
	max := uint32(1)<<width - 1
	c, m := oracle.FromSeed(7), bdd.NewManager(numVars)
	for i := 0; i < 20; i++ {
		lo, hi := uint32(c.Intn(int(max)+1)), uint32(c.Intn(int(max)+1))
		rg := rangeBDD(m, off, width, lo, hi)
		for v := uint32(0); v <= max; v++ {
			if got := oracle.Eval(m, rg, assignBits(numVars, off, width, v, c)); got != (lo <= v && v <= hi) {
				t.Fatalf("off=%d rangeBDD(%d,%d): value %d → %v", off, lo, hi, v, got)
			}
		}
	}
}

// assignBits spells value big-endian into width variables from off (the
// encoders' most-significant-bit-first layout) and draws every other one.
func assignBits(numVars, off, width int, value uint32, c *oracle.Choices) []bool {
	assign := make([]bool, numVars)
	for j := range assign {
		if j < off || j >= off+width {
			assign[j] = c.Chance(2)
		} else {
			assign[j] = value>>uint(width-1-(j-off))&1 == 1
		}
	}
	return assign
}
