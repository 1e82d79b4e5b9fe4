package bdd_test

import (
	"math/rand"
	"testing"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

// diffHarness replays one operation stream against the open-addressed
// manager and the map-backed reference, asserting node identity after
// every step. IDs — not just semantics — must match: the report
// byte-identity guarantee rests on interning being exact and the op cache
// never evicting, so the two engines construct the same nodes in the same
// order.
type diffHarness struct {
	t     *testing.T
	nVars int
	m     *Manager
	ref   *oracle.RefManager
	// held is every root produced so far, as the node each engine gave
	// it. The two IDs are equal until the manager first compacts; after
	// that its survivors have slid down over the slots it freed, and
	// what is asserted is that the pairing stays one to one: a function
	// either engine has returned before comes back as the same pair.
	held      []heldNode
	refOf     map[Node]Node // manager ID → reference ID
	mOf       map[Node]Node // reference ID → manager ID
	compacted bool
}

type heldNode struct{ m, ref Node }

func newDiffHarness(t *testing.T, nVars int) *diffHarness {
	h := &diffHarness{
		t:     t,
		nVars: nVars,
		m:     NewManager(nVars),
		ref:   oracle.NewRefManager(nVars),
		refOf: make(map[Node]Node),
		mOf:   make(map[Node]Node),
	}
	h.check("False", False, False)
	h.check("True", True, True)
	return h
}

func (h *diffHarness) check(step string, got, want Node) heldNode {
	h.t.Helper()
	if !h.compacted && got != want {
		h.t.Fatalf("%s: manager node %d, reference node %d", step, got, want)
	}
	if r, ok := h.refOf[got]; ok && r != want {
		h.t.Fatalf("%s: manager node %d is reference node %d and %d", step, got, r, want)
	}
	if g, ok := h.mOf[want]; ok && g != got {
		h.t.Fatalf("%s: reference node %d is manager node %d and %d", step, want, g, got)
	}
	h.refOf[got], h.mOf[want] = want, got
	n := heldNode{m: got, ref: want}
	h.held = append(h.held, n)
	return n
}

func (h *diffHarness) pick(rng *rand.Rand) heldNode {
	return h.held[rng.Intn(len(h.held))]
}

// compact runs the manager's delta GC over the roots held — every
// intermediate node dies, the op cache starts again empty — and carries
// the pairing over the remap. The reference keeps everything.
func (h *diffHarness) compact() {
	roots := make([]Node, len(h.held))
	for i, n := range h.held {
		roots[i] = n.m
	}
	remap, _ := h.m.CompactDelta(roots)
	clear(h.refOf)
	for i := range h.held {
		n := &h.held[i]
		n.m = remap.Node(n.m)
		h.refOf[n.m], h.mOf[n.ref] = n.ref, n.m
	}
	h.compacted = true
}

// refLive counts the reference's nodes reachable from the roots held,
// terminals included: what the manager is left with after a compaction.
func (h *diffHarness) refLive() int {
	seen := map[Node]bool{False: true, True: true}
	var walk func(Node)
	walk = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		_, lo, hi := h.ref.NodeAt(n)
		walk(lo)
		walk(hi)
	}
	for _, n := range h.held {
		walk(n.ref)
	}
	return len(seen)
}

// topVar is the variable n tests, or the variable count for a terminal.
func (h *diffHarness) topVar(n Node) int {
	level, _, _ := h.m.NodeAt(n)
	return min(int(level), h.nVars)
}

// step applies one random operation to both engines.
func (h *diffHarness) step(rng *rand.Rand) {
	switch rng.Intn(8) {
	case 0:
		v := rng.Intn(h.nVars)
		h.check("Var", h.m.Mk(v, False, True), h.ref.Mk(v, False, True))
	case 1:
		lits := make(map[int]bool)
		for i, k := 0, rng.Intn(h.nVars); i < k; i++ {
			lits[rng.Intn(h.nVars)] = rng.Intn(2) == 0
		}
		h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits))
	case 2:
		a, b := h.pick(rng), h.pick(rng)
		h.check("And", h.m.And(a.m, b.m), h.ref.And(a.ref, b.ref))
	case 3:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Or", h.m.Or(a.m, b.m), h.ref.Or(a.ref, b.ref))
	case 4:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Xor", h.m.Xor(a.m, b.m), h.ref.Xor(a.ref, b.ref))
	case 5:
		a := h.pick(rng)
		h.check("Not", h.m.Not(a.m), h.ref.Not(a.ref))
	case 6:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Diff", h.m.Diff(a.m, b.m), h.ref.Diff(a.ref, b.ref))
	case 7:
		// Mk at a variable above both cofactors' tops, when there is one.
		a, b := h.pick(rng), h.pick(rng)
		top := min(h.topVar(a.m), h.topVar(b.m))
		if top == 0 {
			return
		}
		v := rng.Intn(top)
		got := h.check("Mk", h.m.Mk(v, a.m, b.m), h.ref.Mk(v, a.ref, b.ref))
		// Mk(v, a, b) is the if-then-else on v, whatever built a and b.
		x := h.check("Var", h.m.Mk(v, False, True), h.ref.Mk(v, False, True))
		nx := h.check("Not", h.m.Not(x.m), h.ref.Not(x.ref))
		hi := h.check("And", h.m.And(x.m, b.m), h.ref.And(x.ref, b.ref))
		lo := h.check("And", h.m.And(nx.m, a.m), h.ref.And(nx.ref, a.ref))
		if ite := h.check("Or", h.m.Or(hi.m, lo.m), h.ref.Or(hi.ref, lo.ref)); got != ite {
			h.t.Fatalf("Mk(%d, %d, %d) = node %d, ite = node %d", v, a.m, b.m, got.m, ite.m)
		}
	}
}

// verify compares Eval on random assignments and SatCount for every root
// accumulated so far.
func (h *diffHarness) verify(rng *rand.Rand) {
	h.t.Helper()
	assign := make([]bool, h.nVars)
	for trial := 0; trial < 32; trial++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		for _, n := range h.held {
			if oracle.Eval(h.m, n.m, assign) != oracle.Eval(h.ref, n.ref, assign) {
				h.t.Fatalf("Eval(%d) disagrees between manager and reference", n.m)
			}
		}
	}
	for _, n := range h.held {
		if got, want := oracle.SatCount(h.m, h.nVars, n.m), oracle.SatCount(h.ref, h.nVars, n.ref); got != want {
			h.t.Fatalf("SatCount(%d) = %v on manager, %v on reference", n.m, got, want)
		}
	}
}

func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newDiffHarness(t, 10)
		for i := 0; i < 400; i++ {
			h.step(rng)
			// A compaction sheds the manager's dead nodes and its op
			// cache; which functions are the same node must not change.
			if rng.Intn(97) == 0 {
				h.compact()
			}
		}
		h.verify(rng)
		// What a compaction keeps is what the reference can still reach.
		h.compact()
		if got, want := h.m.Size(), h.refLive(); got != want {
			t.Fatalf("seed %d: compacted manager holds %d nodes, reference reaches %d", seed, got, want)
		}
	}
}

// TestDifferentialDeepFormulas drives deeper recursion than the uniform
// op mix: apply on wide random formulas exercises the growth paths of
// the open-addressed tables past their initial capacities.
func TestDifferentialDeepFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newDiffHarness(t, 12)
	for i := 0; i < 6; i++ {
		acc := heldNode{m: False, ref: False}
		for j := 0; j < 60; j++ {
			lits := make(map[int]bool)
			for k := 0; k < 4; k++ {
				lits[rng.Intn(12)] = rng.Intn(2) == 0
			}
			c := h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits))
			acc = h.check("Or", h.m.Or(acc.m, c.m), h.ref.Or(acc.ref, c.ref))
		}
	}
	h.verify(rng)
	if h.m.Size() != h.ref.Size() {
		t.Fatalf("node counts diverged: manager %d, reference %d", h.m.Size(), h.ref.Size())
	}
}

// TestCacheStatsConsistency pins the op cache's accounting: every lookup
// is a hit or a miss, neither counter runs backwards, and a repeat of
// operations already applied is answered from the table — hits only.
func TestCacheStatsConsistency(t *testing.T) {
	const nVars = 10
	m := NewManager(nVars)
	rng := rand.New(rand.NewSource(7))
	var roots []Node
	for i := 0; i < 40; i++ {
		n, _ := randomFormula(m, nVars, rng, 4)
		roots = append(roots, n)
	}
	pairwise := func() {
		for i := 0; i+1 < len(roots); i++ {
			m.And(roots[i], roots[i+1])
		}
	}
	st0 := m.CacheStats()
	pairwise()
	st1 := m.CacheStats()
	if st1.HitCount < st0.HitCount || st1.Misses < st0.Misses {
		t.Fatalf("cache counters went backwards: %+v -> %+v", st0, st1)
	}
	pairwise()
	st2 := m.CacheStats()
	if st2.Misses != st1.Misses || st2.HitCount <= st1.HitCount {
		t.Fatalf("repeat of memoized operations recursed: %+v -> %+v", st1, st2)
	}
}
