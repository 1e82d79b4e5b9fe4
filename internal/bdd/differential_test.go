package bdd_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

// The differential runner: one operation stream, read from an
// oracle.Choices, applied to the open-addressed manager and to the
// map-backed reference, with node identity asserted after every step and
// Eval and SatCount compared at the end. IDs — not just semantics — must
// match: the report byte-identity guarantee rests on interning being exact
// and the op cache never evicting, so the two engines construct the same
// nodes in the same order. Freezing, forking and concurrent snapshot
// readers are steps and options of the same run, so each is held to the
// reference too.

// op is one step of a run.
type op int

const (
	opVar  op = iota // a variable
	opCube           // a conjunction of literals
	opAnd
	opOr
	opXor
	opNot
	opDiff
	opMk     // Mk above both cofactors, held to the if-then-else; or below one, and both engines panic
	opLaws   // the algebra's identities on held operands
	opRepeat // an earlier apply again
	opGrow   // a 60-cube disjunction, past the tables' initial capacities
	opFreeze // freeze and go on in a fork; a fork is replaced by a sibling
	numOps
)

var opNames = [numOps]string{"Var", "Cube", "And", "Or", "Xor", "Not", "Diff", "Mk", "laws", "repeat", "grow", "freeze"}

// algebra is the eight construction steps.
var algebra = []op{opVar, opCube, opAnd, opOr, opXor, opNot, opDiff, opMk}

// bddCase is one run's shape. Each step is drawn uniformly from ops, except
// that one step in freeze freezes (0: never). readers goroutines read the
// first snapshot through forks of their own while the run goes on.
type bddCase struct {
	nVars, steps int
	ops          []op
	freeze       int
	readers      int
}

// builder is the construction surface the manager and the reference share.
type builder interface {
	And(a, b Node) Node
	Or(a, b Node) Node
	Xor(a, b Node) Node
	Not(a Node) Node
	Diff(a, b Node) Node
}

type pair struct{ m, ref Node }

type applied struct {
	kind      op
	a, b, out pair
}

type harness struct {
	t       *testing.T
	c       *oracle.Choices
	nVars   int
	readers int
	m       *Manager
	ref     *oracle.RefManager
	// snap is the first freeze's snapshot and frozen the manager it sealed.
	snap   *Snapshot
	frozen *Manager
	// held is every root the run still holds, as the node each engine gave
	// it. The IDs are equal (exact) until the manager is replaced by a
	// sibling fork; after that what is asserted is that the pairing stays
	// one to one: a function either engine has returned before comes back
	// as the same pair.
	held       []pair
	refOf, mOf map[Node]Node
	exact      bool
	// applied is every apply since the last re-fork, for opRepeat;
	// applied[cached:] are in the manager's op cache.
	applied []applied
	cached  int
	wg      sync.WaitGroup
}

// run drives one case from c and verifies every root it built.
func run(t *testing.T, c *oracle.Choices, cs bddCase) {
	t.Helper()
	h := &harness{t: t, c: c, nVars: cs.nVars, readers: cs.readers, m: NewManager(cs.nVars),
		ref: oracle.NewRefManager(cs.nVars), refOf: map[Node]Node{}, mOf: map[Node]Node{}, exact: true}
	defer h.wg.Wait()
	h.check("False", False, False)
	h.check("True", True, True)
	for i := 0; i < cs.steps; i++ {
		switch {
		case cs.freeze > 0 && c.Chance(cs.freeze):
			h.step(opFreeze)
		default:
			h.step(cs.ops[c.Intn(len(cs.ops))])
		}
	}
	if cs.readers > 0 && h.snap == nil {
		t.Fatal("the case froze nothing for its readers to read")
	}
	h.verify()
}

func (h *harness) check(step string, got, want Node) pair {
	h.t.Helper()
	if h.exact && got != want {
		h.t.Fatalf("%s: manager node %d, reference node %d", step, got, want)
	}
	if r, ok := h.refOf[got]; ok && r != want {
		h.t.Fatalf("%s: manager node %d is reference node %d and %d", step, got, r, want)
	}
	if g, ok := h.mOf[want]; ok && g != got {
		h.t.Fatalf("%s: reference node %d is manager node %d and %d", step, want, g, got)
	}
	h.refOf[got], h.mOf[want] = want, got
	p := pair{m: got, ref: want}
	h.held = append(h.held, p)
	return p
}

// hold replaces the held roots and restarts the pairing from them.
func (h *harness) hold(roots []pair) {
	h.held, h.exact, h.applied, h.cached = roots, false, nil, 0
	clear(h.refOf)
	clear(h.mOf)
	for _, n := range roots {
		h.refOf[n.m], h.mOf[n.ref] = n.ref, n.m
	}
}

func (h *harness) pick() pair { return h.held[h.c.Intn(len(h.held))] }

// literals draws n literals (repeats collapse).
func (h *harness) literals(n int) map[int]bool {
	lits := make(map[int]bool, n)
	for ; n > 0; n-- {
		lits[h.c.Intn(h.nVars)] = h.c.Chance(2)
	}
	return lits
}

// topVar is the variable n tests, or the variable count for a terminal.
func (h *harness) topVar(n Node) int {
	level, _, _ := h.m.NodeAt(n)
	return min(int(level), h.nVars)
}

func binary(e builder, kind op, a, b Node) Node {
	switch kind {
	case opAnd:
		return e.And(a, b)
	case opOr:
		return e.Or(a, b)
	case opXor:
		return e.Xor(a, b)
	case opNot:
		return e.Not(a)
	}
	return e.Diff(a, b)
}

// apply runs one boolean operation on both engines.
func (h *harness) apply(kind op, a, b pair) pair {
	h.t.Helper()
	p := h.check(opNames[kind], binary(h.m, kind, a.m, b.m), binary(h.ref, kind, a.ref, b.ref))
	h.applied = append(h.applied, applied{kind, a, b, p})
	return p
}

func (h *harness) step(kind op) {
	h.t.Helper()
	switch kind {
	case opVar:
		v := h.c.Intn(h.nVars)
		h.check("Var", h.m.Mk(v, False, True), h.ref.Mk(v, False, True))
	case opCube:
		lits := h.literals(h.c.Intn(h.nVars + 1))
		h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits))
	case opAnd, opOr, opXor, opNot, opDiff:
		h.apply(kind, h.pick(), h.pick())
	case opMk:
		h.mk(h.pick(), h.pick())
	case opLaws:
		h.laws(h.pick(), h.pick(), h.pick())
	case opRepeat:
		h.repeat()
	case opGrow:
		acc := pair{False, False}
		for i := 0; i < 60; i++ {
			lits := h.literals(4)
			acc = h.apply(opOr, acc, h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits)))
		}
	case opFreeze:
		h.freeze()
	}
}

// mk interns a node above both cofactors on both engines and holds it to
// the if-then-else it stands for. One time in four, and whenever a
// cofactor tests the first variable, it asks instead for a level at or
// below a cofactor's, or outside the ordering: both engines must panic.
func (h *harness) mk(a, b pair) {
	h.t.Helper()
	top := min(h.topVar(a.m), h.topVar(b.m))
	if top == 0 || h.c.Chance(4) {
		v := top + h.c.Intn(h.nVars-top+1)
		if h.c.Chance(4) {
			v = -1
		}
		mustPanic(h.t, fmt.Sprintf("Mk(%d, %d, %d)", v, a.m, b.m), func() { h.m.Mk(v, a.m, b.m) })
		mustPanic(h.t, fmt.Sprintf("reference Mk(%d, %d, %d)", v, a.ref, b.ref), func() { h.ref.Mk(v, a.ref, b.ref) })
		return
	}
	v := h.c.Intn(top)
	got := h.check("Mk", h.m.Mk(v, a.m, b.m), h.ref.Mk(v, a.ref, b.ref))
	x := h.check("Var", h.m.Mk(v, False, True), h.ref.Mk(v, False, True))
	if ite := h.apply(opOr, h.apply(opAnd, x, b), h.apply(opDiff, a, x)); got != ite {
		h.t.Fatalf("Mk(%d, %d, %d) = node %d, if-then-else = node %d", v, a.m, b.m, got.m, ite.m)
	}
}

type identity struct {
	name  string
	sides [2]Node
}

// identities evaluates the algebra's laws on x, y and z in e, left to
// right, so both engines run the same operations in the same order.
func identities(e builder, x, y, z Node) []identity {
	return []identity{
		{"And commutes", [2]Node{e.And(x, y), e.And(y, x)}},
		{"Or commutes", [2]Node{e.Or(x, y), e.Or(y, x)}},
		{"Or associates", [2]Node{e.Or(e.Or(x, y), z), e.Or(x, e.Or(y, z))}},
		{"And distributes", [2]Node{e.And(x, e.Or(y, z)), e.Or(e.And(x, y), e.And(x, z))}},
		{"De Morgan", [2]Node{e.Not(e.And(x, y)), e.Or(e.Not(x), e.Not(y))}},
		{"double negation", [2]Node{e.Not(e.Not(x)), x}},
		{"excluded middle", [2]Node{e.Or(x, e.Not(x)), True}},
		{"absorption", [2]Node{e.Or(x, e.And(x, y)), x}},
		{"x∧y implies x", [2]Node{e.Diff(e.And(x, y), x), False}},
		{"Diff is And-Not", [2]Node{e.Diff(x, y), e.And(x, e.Not(y))}},
		{"Xor is Diff both ways", [2]Node{e.Xor(x, y), e.Or(e.Diff(x, y), e.Diff(y, x))}},
	}
}

// laws holds the manager to the algebra's identities on held operands: the
// nodes being canonical, the two sides of each are one node.
func (h *harness) laws(x, y, z pair) {
	h.t.Helper()
	got, want := identities(h.m, x.m, y.m, z.m), identities(h.ref, x.ref, y.ref, z.ref)
	for i, id := range got {
		a, b := h.check(id.name, id.sides[0], want[i].sides[0]), h.check(id.name, id.sides[1], want[i].sides[1])
		if a != b {
			h.t.Fatalf("%s fails on nodes %d, %d, %d: %d != %d", id.name, x.m, y.m, z.m, a.m, b.m)
		}
	}
}

// repeat applies an earlier step's operation again on the manager: it
// returns the node it returned then and builds nothing, and while the
// result is in the op cache (no freeze since) it recurses nowhere.
func (h *harness) repeat() {
	h.t.Helper()
	if len(h.applied) == 0 {
		return
	}
	i := h.c.Intn(len(h.applied))
	r := h.applied[i]
	size, misses := h.m.Size(), h.m.CacheStats().Misses
	if got := binary(h.m, r.kind, r.a.m, r.b.m); got != r.out.m || h.m.Size() != size {
		h.t.Fatalf("%s(%d, %d) again = node %d (size %d -> %d), first node %d", opNames[r.kind], r.a.m, r.b.m, got, size, h.m.Size(), r.out.m)
	}
	if i >= h.cached && h.m.CacheStats().Misses != misses {
		h.t.Fatalf("%s(%d, %d) again missed the op cache", opNames[r.kind], r.a.m, r.b.m)
	}
}

// freeze seals the manager and goes on in a fork of its snapshot, which
// starts with the whole of it and nothing else; the snapshot is the value
// RebuildSnapshot makes of its nodes, unique table included; the sealed
// manager refuses to build, and the case's readers start. A fork cannot be
// frozen: it is replaced by a sibling fork of the same snapshot, which
// holds none of its delta, so the delta roots go and the reference's IDs
// run ahead of the manager's.
func (h *harness) freeze() {
	h.t.Helper()
	if h.snap == nil {
		h.frozen, h.snap = h.m, h.m.Freeze()
		if img, err := RebuildSnapshot(h.snap.NumVars(), h.snap.Size(), h.snap.NodeAt); err != nil || !reflect.DeepEqual(img, h.snap) {
			h.t.Fatalf("a snapshot of %d nodes rebuilds to another value (%v)", h.snap.Size(), err)
		}
		h.m = NewManagerFrom(h.snap)
		if h.m.Size() != h.snap.Size() || h.m.DeltaSize() != 0 {
			h.t.Fatalf("fresh fork: Size %d, DeltaSize %d; snapshot %d", h.m.Size(), h.m.DeltaSize(), h.snap.Size())
		}
		mustPanic(h.t, "And on a frozen manager", func() { h.frozen.And(True, True) })
		h.cached = len(h.applied)
		h.startReaders()
		return
	}
	mustPanic(h.t, "Freeze on a fork", func() { h.m.Freeze() })
	h.m = NewManagerFrom(h.snap)
	var base []pair
	for _, n := range h.held {
		if h.snap.Contains(n.m) {
			base = append(base, n)
		}
	}
	h.hold(base)
}

// startReaders launches the case's readers on the snapshot. Each forks it
// and, while the run goes on in a fork of its own, rebuilds frozen nodes
// from their cofactors (they must resolve to their frozen IDs), evaluates
// them and a difference of two of them built in its delta against the
// truth values the reference gave.
// Any write to shared state in that is a data race for -race to report.
func (h *harness) startReaders() {
	nodes := make([]Node, len(h.held))
	assigns := make([][]bool, 64)
	truth := make([][]bool, len(h.held))
	for k := range assigns {
		assigns[k] = make([]bool, h.nVars)
		for v := range assigns[k] {
			assigns[k][v] = h.c.Chance(2)
		}
	}
	for i, n := range h.held {
		nodes[i] = n.m
		truth[i] = make([]bool, len(assigns))
		for k, a := range assigns {
			truth[i][k] = oracle.Eval(h.ref, n.ref, a)
		}
	}
	for g := 0; g < h.readers; g++ {
		c := oracle.FromSeed(int64(h.c.Uint16())<<8 | int64(g))
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			fork := NewManagerFrom(h.snap)
			for i := 0; i < 200; i++ {
				a, b, k := c.Intn(len(nodes)), c.Intn(len(nodes)), c.Intn(len(assigns))
				if level, lo, hi := fork.NodeAt(nodes[a]); int(level) < h.nVars && fork.Mk(int(level), lo, hi) != nodes[a] {
					h.t.Errorf("a reader rebuilt frozen node %d as another", nodes[a])
					return
				}
				d := fork.Diff(nodes[a], nodes[b])
				if oracle.Eval(fork, nodes[a], assigns[k]) != truth[a][k] || oracle.Eval(fork, d, assigns[k]) != (truth[a][k] && !truth[b][k]) {
					h.t.Errorf("a reader evaluated node %d or %d \\ %d wrong", nodes[a], nodes[a], nodes[b])
					return
				}
			}
		}()
	}
}

// verify compares every held root across the engines: Eval on assignments
// (every one, with at most eight variables), through the sealed manager too
// for roots in its snapshot, and SatCount. With every assignment
// enumerated, SatCount must count the truth table, and equal tables must be
// one node. While IDs are exact the engines hold equally many nodes.
func (h *harness) verify() {
	h.t.Helper()
	exhaustive := h.nVars <= 8
	var assigns [][]bool
	if exhaustive {
		for a := 0; a < 1<<h.nVars; a++ {
			assign := make([]bool, h.nVars)
			for v := range assign {
				assign[v] = a&(1<<v) != 0
			}
			assigns = append(assigns, assign)
		}
	} else {
		for k := 0; k < 32; k++ {
			assign := make([]bool, h.nVars)
			for v := range assign {
				assign[v] = h.c.Chance(2)
			}
			assigns = append(assigns, assign)
		}
	}
	byTable := map[string]Node{}
	for _, n := range h.held {
		table, ones := make([]byte, len(assigns)), 0
		for k, a := range assigns {
			got := oracle.Eval(h.m, n.m, a)
			if got != oracle.Eval(h.ref, n.ref, a) || h.snap != nil && h.snap.Contains(n.m) && oracle.Eval(h.frozen, n.m, a) != got {
				h.t.Fatalf("Eval(%d) disagrees between the manager, its sealed base and the reference", n.m)
			}
			if got {
				table[k], ones = 1, ones+1
			}
		}
		count := oracle.SatCount(h.m, h.nVars, n.m)
		if want := oracle.SatCount(h.ref, h.nVars, n.ref); count != want || exhaustive && count != float64(ones) {
			h.t.Fatalf("SatCount(%d) = %v on the manager, %v on the reference, %d in its truth table", n.m, count, want, ones)
		}
		if !exhaustive {
			continue
		}
		if prev, ok := byTable[string(table)]; ok && prev != n.m {
			h.t.Fatalf("nodes %d and %d have one truth table", prev, n.m)
		}
		byTable[string(table)] = n.m
	}
	if h.exact && h.m.Size() != h.ref.Size() {
		h.t.Fatalf("node counts diverged: manager %d, reference %d", h.m.Size(), h.ref.Size())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	fn()
}

// FuzzDifferential runs the fuzzer's bytes as a case over every step.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 3, 0, 5, 2, 1, 2, 12, 3, 4, 3, 11, 8, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		ops := make([]op, numOps)
		for i := range ops {
			ops[i] = op(i)
		}
		run(t, c, bddCase{nVars: 1 + c.Intn(12), steps: min(len(data), 200), ops: ops})
	})
}
