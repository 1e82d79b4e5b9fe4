// Tests for the compiler's memo of tails and tries (compile.go). Two
// things can go wrong with it: a hit could return something other than
// what the skipped Mk calls would have found, and an entry could outlive
// the node IDs it names. The first is held to the memo-less compile, node
// for node; the second is pinned where IDs move — Compact and Reset.

package equiv

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// checkMemoInvisible compiles baseLists into one manager and, after a
// freeze, forkLists into a fork of it — once with no memo and once through
// a memo the fork reads frozen and layers its own on, as a Base and its
// checkers do. Both must fail alike or yield the same node for every list,
// and intern the same number of nodes on each side of the freeze: same
// creation order, so same IDs. It returns the two frozen snapshots.
func checkMemoInvisible(t *testing.T, baseLists, forkLists [][]rule.Rule) (plain, memod *bdd.Snapshot) {
	t.Helper()
	pm, mm := bdd.NewManager(NumVars), bdd.NewManager(NumVars)
	frozen := compileMemo{}
	same := func(stage string, i int, p, m Backend, rules []rule.Rule, frozen, own compileMemo) {
		t.Helper()
		want, wantErr := compileSemantics(p, rules)
		got, gotErr := compileMemoized(m, rules, frozen, own)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s list %d: memoized compile error %v, memo-less %v", stage, i, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%s list %d: memoized root %d, memo-less root %d", stage, i, got, want)
		}
	}
	for i, rules := range baseLists {
		same("base", i, pm, mm, rules, nil, frozen)
	}
	if pm.Size() != mm.Size() {
		t.Fatalf("base holds %d nodes memoized, %d memo-less", mm.Size(), pm.Size())
	}
	plain, memod = pm.Freeze(), mm.Freeze()
	pf, mf := bdd.NewManagerFrom(plain), bdd.NewManagerFrom(memod)
	own := compileMemo{}
	for i, rules := range forkLists {
		same("fork", i, pf, mf, rules, frozen, own)
	}
	if pf.DeltaSize() != mf.DeltaSize() {
		t.Fatalf("fork delta holds %d nodes memoized, %d memo-less", mf.DeltaSize(), pf.DeltaSize())
	}
	return plain, memod
}

// TestMemoInvisibleOnShapes: the compiler's three stress shapes, each
// frozen alone and then re-compiled in a fork with four rules evicted,
// and random lists that share fields the way randCompileList makes them.
func TestMemoInvisibleOnShapes(t *testing.T) {
	for _, shape := range compileShapes {
		checkMemoInvisible(t, [][]rule.Rule{shape.rules}, [][]rule.Rule{evictFour(shape.rules), shape.rules})
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		var base, fork [][]rule.Rule
		for j := rng.Intn(4); j >= 0; j-- {
			base = append(base, randCompileList(rng, 1+rng.Intn(24)))
		}
		for j := rng.Intn(4); j >= 0; j-- {
			l := randCompileList(rng, 1+rng.Intn(24))
			if rng.Intn(2) == 0 { // mostly a frozen list, edited
				l = append(append([]rule.Rule(nil), base[rng.Intn(len(base))]...), l[:1+rng.Intn(len(l))]...)
			}
			fork = append(fork, l)
		}
		checkMemoInvisible(t, base, fork)
	}
}

// TestMemoInvisibleOnProduction is the repository benchmark's input: the
// eight production-quarter lists frozen into one base, their four-rule
// evictions compiled in a fork. The memoized base is the memo-less one
// node for node — which, with the semantics memo, is all the store's codec
// reads — and it is the size every PR since the direct compiler has
// reported.
func TestMemoInvisibleOnProduction(t *testing.T) {
	lists := productionQuarter(t, 42)
	tcams := make([][]rule.Rule, len(lists))
	for i, l := range lists {
		tcams[i] = evictFour(l)
	}
	plain, memod := checkMemoInvisible(t, lists, tcams)
	if plain.Size() != memod.Size() {
		t.Fatalf("snapshot sizes differ: %d memo-less, %d memoized", plain.Size(), memod.Size())
	}
	for i := 0; i < plain.Size(); i++ {
		pl, plo, phi := plain.NodeAt(i)
		ml, mlo, mhi := memod.NodeAt(i)
		if pl != ml || plo != mlo || phi != mhi {
			t.Fatalf("node %d: memo-less (%d, %d, %d), memoized (%d, %d, %d)", i, pl, plo, phi, ml, mlo, mhi)
		}
	}

	base := newBase(lists...)
	if got, want := base.Size(), 34938; got != want {
		t.Errorf("base holds %d nodes, want %d", got, want)
	}
	if base.Size() != memod.Size() {
		t.Errorf("NewBaseWith froze %d nodes, the bare memoized compile %d", base.Size(), memod.Size())
	}
	if len(base.memo) == 0 {
		t.Error("the base froze no memo")
	}
	// A checker of the base re-compiles a drifted list into the edit's
	// paths alone, as it did before there was a memo.
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
// by ID, and Compact renumbers the delta. Here the difference of a first
// check is garbage sitting below the nodes of a list compiled after it,
// so compaction moves those nodes down — and a list compiled next, which
// shares groups with both, must still come out as the oracle fold builds
// it in the same manager. (Keeping the memo across Compact fails this
// test and, when the PR was written, no other.) Reset is held to the same.
func TestMemoDiesWithItsNodeIDs(t *testing.T) {
	a := churnList(900)
	a1 := editCells(a, 7, 20, 140, 260)
	a2 := editCells(a, 11, 30, 150, 270)
	// a3 has the groups a1 edited, the groups a2 edited, and one of its own.
	a3 := editCells(editCells(editCells(a, 7, 20, 140, 260), 11, 30, 150, 270), 13, 200)
	base := newBase(churnList(300)) // a prefix of a: the frozen memo is in play too

	check := func(c *Checker, when string) {
		t.Helper()
		got, err := c.semantics(a3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleSemantics(c.m.(*bdd.Manager), a3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: compiled root %d, the fold builds %d in the same manager", when, got, want)
		}
		for _, pair := range [][2][]rule.Rule{{a, a3}, {a3, a1}, {a2, a3}} {
			rep, err := c.Check(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewChecker().Check(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Equivalent || !reflect.DeepEqual(rep, fresh) {
				t.Fatalf("%s: report differs from a fresh checker's", when)
			}
		}
	}

	c := base.NewChecker()
	if _, err := c.Check(a, a1); err != nil { // a, a1, then their difference
		t.Fatal(err)
	}
	if _, err := c.Check(a, a2); err != nil { // a2's nodes sit above that difference
		t.Fatal(err)
	}
	if len(c.memo) == 0 {
		t.Fatal("the checks left no private memo to go stale")
	}
	stats, ok := c.Compact()
	if !ok || stats.Dropped == 0 {
		t.Fatalf("compaction dropped nothing (%+v): no node ID moved", stats)
	}
	if len(c.memo) != 0 {
		t.Error("Compact kept the private memo")
	}
	check(c, "after Compact")

	c.Reset()
	if len(c.memo) != 0 {
		t.Error("Reset kept the private memo")
	}
	check(c, "after Reset")
}
