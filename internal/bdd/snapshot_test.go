package bdd_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

// TestFreezeForkIdentity pins the fork contract: nodes built before the
// freeze keep their IDs and meaning in every fork, base-expressible
// functions resolve to base IDs (never duplicated into the delta), and
// distinct forks agree on those IDs.
func TestFreezeForkIdentity(t *testing.T) {
	m := NewManager(6)
	ab := m.And(m.Mk(0, False, True), m.Mk(1, False, True))
	cd := m.Or(m.Mk(2, False, True), m.Not(m.Mk(3, False, True)))
	snap := m.Freeze()

	f1 := NewManagerFrom(snap)
	f2 := NewManagerFrom(snap)
	if f1.Size() != snap.Size() || f1.DeltaSize() != 0 {
		t.Fatalf("fresh fork: Size=%d DeltaSize=%d, want %d and 0", f1.Size(), f1.DeltaSize(), snap.Size())
	}
	// Rebuilding a frozen function in a fork must yield the frozen ID,
	// not a delta node.
	if got := f1.And(f1.Mk(0, False, True), f1.Mk(1, False, True)); got != ab {
		t.Errorf("fork rebuild of a∧b = node %d, want frozen node %d", got, ab)
	}
	if f1.DeltaSize() != 0 {
		t.Errorf("base-expressible rebuild allocated %d delta nodes", f1.DeltaSize())
	}
	// New functions extend the frozen prefix.
	x := f1.And(ab, cd)
	if int(x) < snap.Size() {
		t.Errorf("fresh conjunction landed in the frozen prefix: node %d", x)
	}
	if !snap.Contains(ab) || snap.Contains(x) {
		t.Error("Contains must separate frozen prefix from fork delta")
	}
	// Forks agree on every base ID even after divergent private work.
	_ = f2.Xor(f2.Mk(4, False, True), f2.Mk(5, False, True))
	if f2.And(f2.Mk(0, False, True), f2.Mk(1, False, True)) != ab {
		t.Error("forks must agree on base-expressible node IDs")
	}
}

// TestForkMatchesStandalone is the fork soundness property: any formula
// evaluated through a fork (mixing frozen and delta nodes) denotes the
// same boolean function a standalone manager computes.
func TestForkMatchesStandalone(t *testing.T) {
	const nVars = 6
	base := NewManager(nVars)
	rng := rand.New(rand.NewSource(1))
	// Warm the base with some frozen structure first.
	for i := 0; i < 5; i++ {
		randomFormula(base, nVars, rng, 3)
	}
	snap := base.Freeze()

	f := func(seed int64) bool {
		fork := NewManagerFrom(snap)
		rng := rand.New(rand.NewSource(seed))
		n, tt := randomFormula(fork, nVars, rng, 5)
		for a := uint(0); a < 1<<nVars; a++ {
			assign := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				assign[v] = a&(1<<v) != 0
			}
			if oracle.Eval(fork, n, assign) != tt[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFrozenManagerPanics pins the freeze contract: the frozen manager
// rejects further construction and operations (its tables are shared
// with concurrent snapshot readers), while reads stay valid.
func TestFrozenManagerPanics(t *testing.T) {
	m := NewManager(4)
	ab := m.And(m.Mk(0, False, True), m.Mk(1, False, True))
	m.Freeze()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen manager must panic", name)
			}
		}()
		fn()
	}
	mustPanic("Or", func() { m.Or(ab, m.Mk(2, False, True)) })
	mustPanic("And", func() { m.And(True, True) }) // even a cache-hit-free terminal case
	mustPanic("Cube", func() { m.Cube(map[int]bool{2: true, 3: false}) })

	if !oracle.Eval(m, ab, []bool{true, true, false, false}) {
		t.Error("reads must keep working after Freeze")
	}
	if n := oracle.SatCount(m, 4, ab); n != 4 {
		t.Errorf("SatCount after Freeze = %v, want 4", n)
	}
}

// TestFreezeForkPanics: re-freezing a fork is unsupported.
func TestFreezeForkPanics(t *testing.T) {
	snap := NewManager(2).Freeze()
	fork := NewManagerFrom(snap)
	defer func() {
		if recover() == nil {
			t.Error("Freeze on a fork must panic")
		}
	}()
	fork.Freeze()
}

// TestForkOfWarmSnapshotMatchesUnfrozen pins that a snapshot is its
// nodes and nothing else: the operations memoized before the freeze stay
// behind with the frozen manager, and a fork that repeats or extends them
// arrives, through the unique tables alone, at the node IDs an unfrozen
// twin of the base — its memo intact — returns for the same operations.
func TestForkOfWarmSnapshotMatchesUnfrozen(t *testing.T) {
	const nVars = 8
	warm := func(m *Manager) []Node {
		rng := rand.New(rand.NewSource(4))
		var roots []Node
		for i := 0; i < 6; i++ {
			n, _ := randomFormula(m, nVars, rng, 4)
			roots = append(roots, n)
		}
		return roots
	}
	twin, base := NewManager(nVars), NewManager(nVars)
	roots := warm(twin)
	warm(base)
	fork := NewManagerFrom(base.Freeze())
	if fork.Size() != twin.Size() {
		t.Fatalf("fork of the frozen base sees %d nodes, unfrozen twin %d", fork.Size(), twin.Size())
	}

	same := func(op string, a, b, got, want Node) {
		t.Helper()
		if got != want {
			t.Fatalf("%s(%d, %d): fork node %d, unfrozen twin node %d", op, a, b, got, want)
		}
	}
	for _, a := range roots {
		for _, b := range roots {
			// And repeats work the base did (its formulas are built from
			// these operands), Diff and Xor extend it into the delta.
			same("And", a, b, fork.And(a, b), twin.And(a, b))
			same("Diff", a, b, fork.Diff(a, b), twin.Diff(a, b))
			same("Xor-Not", a, b, fork.Xor(a, fork.Not(b)), twin.Xor(a, twin.Not(b)))
		}
	}
	if fork.Size() != twin.Size() {
		t.Fatalf("fork grew to %d nodes, unfrozen twin to %d", fork.Size(), twin.Size())
	}
	if warm(fork); fork.Size() != twin.Size() {
		t.Fatal("repeating the base's own construction in a fork built nodes")
	}
}

// TestSnapshotConcurrentReaders is the -race guard for the shared-base
// design: many goroutines fork the same frozen snapshot concurrently and
// hammer it — rebuilding frozen functions and combining frozen nodes
// (base node-array and unique-table reads), evaluating frozen and delta
// nodes through the fork — while each builds private delta structure.
// Any mutation of shared state under this schedule is a data race the
// -race CI leg must catch.
func TestSnapshotConcurrentReaders(t *testing.T) {
	const nVars = 8
	base := NewManager(nVars)
	frozen := make([]Node, 0, 16)
	for v := 0; v < nVars-1; v++ {
		frozen = append(frozen, base.And(base.Mk(v, False, True), base.Mk(v+1, False, True)))
	}
	union := False
	for _, n := range frozen {
		union = base.Or(union, n)
	}
	frozen = append(frozen, union)
	snap := base.Freeze()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fork := NewManagerFrom(snap)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				// Base-expressible rebuilds must resolve to frozen IDs.
				v := rng.Intn(nVars - 1)
				if fork.And(fork.Mk(v, False, True), fork.Mk(v+1, False, True)) != frozen[v] {
					errs <- "fork disagreed with frozen ID"
					return
				}
				// Mixed frozen/delta work: the union less one pair.
				k := rng.Intn(len(frozen) - 1)
				n := fork.Diff(frozen[len(frozen)-1], frozen[k])
				assign := make([]bool, nVars)
				for j := range assign {
					assign[j] = rng.Intn(2) == 0
				}
				pair := func(j int) bool { return assign[j] && assign[j+1] }
				if oracle.Eval(fork, frozen[v], assign) != pair(v) {
					errs <- "fork read a frozen node wrong"
					return
				}
				union := false
				for j := 0; j < nVars-1; j++ {
					union = union || pair(j)
				}
				if oracle.Eval(fork, n, assign) != (union && !pair(k)) {
					errs <- "fork evaluated a delta node wrong"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
