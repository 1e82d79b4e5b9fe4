package bdd

import (
	"math/rand"
	"testing"
)

// diffHarness replays one operation stream against the open-addressed
// manager and the map-backed reference, asserting node-ID identity after
// every step. IDs — not just semantics — must match: the report
// byte-identity guarantee rests on interning being exact and the exact
// cache tier never evicting, so the two engines construct the same nodes
// in the same order.
type diffHarness struct {
	t   *testing.T
	m   *Manager
	ref *RefManager
	// nodes holds every root produced so far; the two engines' IDs are
	// asserted equal, so one slice serves both.
	nodes []Node
}

func newDiffHarness(t *testing.T, nVars int) *diffHarness {
	return &diffHarness{
		t:     t,
		m:     NewManager(nVars),
		ref:   NewRefManager(nVars),
		nodes: []Node{False, True},
	}
}

func (h *diffHarness) check(step string, got, want Node) Node {
	h.t.Helper()
	if got != want {
		h.t.Fatalf("%s: manager node %d, reference node %d", step, got, want)
	}
	h.nodes = append(h.nodes, got)
	return got
}

func (h *diffHarness) pick(rng *rand.Rand) Node {
	return h.nodes[rng.Intn(len(h.nodes))]
}

// step applies one random operation to both engines.
func (h *diffHarness) step(rng *rand.Rand) {
	switch rng.Intn(11) {
	case 0:
		v := rng.Intn(h.m.NumVars())
		h.check("Var", h.m.Var(v), h.ref.Var(v))
	case 1:
		v := rng.Intn(h.m.NumVars())
		h.check("NVar", h.m.NVar(v), h.ref.NVar(v))
	case 2:
		lits := make(map[int]bool)
		for i, k := 0, rng.Intn(h.m.NumVars()); i < k; i++ {
			lits[rng.Intn(h.m.NumVars())] = rng.Intn(2) == 0
		}
		h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits))
	case 3:
		a, b := h.pick(rng), h.pick(rng)
		h.check("And", h.m.And(a, b), h.ref.And(a, b))
	case 4:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Or", h.m.Or(a, b), h.ref.Or(a, b))
	case 5:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Xor", h.m.Xor(a, b), h.ref.Xor(a, b))
	case 6:
		a := h.pick(rng)
		h.check("Not", h.m.Not(a), h.ref.Not(a))
	case 7:
		k := rng.Intn(7)
		set := make([]Node, k)
		for i := range set {
			set[i] = h.pick(rng)
		}
		h.check("OrAll", h.m.OrAll(set), h.ref.OrAll(set))
	case 8:
		a, b := h.pick(rng), h.pick(rng)
		h.check("Diff", h.m.Diff(a, b), h.ref.Diff(a, b))
	case 9:
		// Mk at a variable above both cofactors' tops, when there is one.
		a, b := h.pick(rng), h.pick(rng)
		top := min(h.m.levelOf(a), h.m.levelOf(b))
		if top == 0 {
			return
		}
		v := rng.Intn(int(top))
		got := h.check("Mk", h.m.Mk(v, a, b), h.ref.Mk(v, a, b))
		// Mk(v, a, b) is the if-then-else on v, whatever built a and b.
		x := h.check("Var", h.m.Var(v), h.ref.Var(v))
		nx := h.check("Not", h.m.Not(x), h.ref.Not(x))
		hi := h.check("And", h.m.And(x, b), h.ref.And(x, b))
		lo := h.check("And", h.m.And(nx, a), h.ref.And(nx, a))
		if ite := h.check("Or", h.m.Or(hi, lo), h.ref.Or(hi, lo)); got != ite {
			h.t.Fatalf("Mk(%d, %d, %d) = node %d, ite = node %d", v, a, b, got, ite)
		}
	case 10:
		// Intersects answers And != False and builds nothing.
		a, b := h.pick(rng), h.pick(rng)
		size := h.m.Size()
		got, refGot := h.m.Intersects(a, b), h.ref.Intersects(a, b)
		if h.m.Size() != size {
			h.t.Fatalf("Intersects(%d, %d) interned %d nodes", a, b, h.m.Size()-size)
		}
		and := h.check("And", h.m.And(a, b), h.ref.And(a, b))
		if got != (and != False) || refGot != got {
			h.t.Fatalf("Intersects(%d, %d): manager %v, reference %v, And = node %d", a, b, got, refGot, and)
		}
	}
}

// verify compares Eval on random assignments and SatCount for every root
// accumulated so far.
func (h *diffHarness) verify(rng *rand.Rand) {
	h.t.Helper()
	assign := make([]bool, h.m.NumVars())
	for trial := 0; trial < 32; trial++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		for _, n := range h.nodes {
			if h.m.Eval(n, assign) != h.ref.Eval(n, assign) {
				h.t.Fatalf("Eval(%d) disagrees between manager and reference", n)
			}
		}
	}
	for _, n := range h.nodes {
		if got, want := h.m.SatCount(n), h.ref.SatCount(n); got != want {
			h.t.Fatalf("SatCount(%d) = %v on manager, %v on reference", n, got, want)
		}
	}
}

func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newDiffHarness(t, 10)
		for i := 0; i < 400; i++ {
			h.step(rng)
			// ClearCache must never change node identity on either
			// engine — only memoization speed.
			if rng.Intn(97) == 0 {
				h.m.ClearCache()
				h.ref.ClearCache()
			}
		}
		h.verify(rng)
		if h.m.Size() != h.ref.Size() {
			t.Fatalf("seed %d: node counts diverged: manager %d, reference %d",
				seed, h.m.Size(), h.ref.Size())
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
		acc := False
		for j := 0; j < 60; j++ {
			lits := make(map[int]bool)
			for k := 0; k < 4; k++ {
				lits[rng.Intn(12)] = rng.Intn(2) == 0
			}
			c := h.check("Cube", h.m.Cube(lits), h.ref.Cube(lits))
			acc = h.check("Or", h.m.Or(acc, c), h.ref.Or(acc, c))
		}
	}
	h.verify(rng)
}

// TestCacheStatsConsistency pins the tier split's accounting: the tiers
// only move where hits are answered, so total lookups resolve fully into
// the four counters and every L1 hit shadows an entry the exact tiers
// hold.
func TestCacheStatsConsistency(t *testing.T) {
	m := NewManager(10)
	rng := rand.New(rand.NewSource(7))
	var roots []Node
	for i := 0; i < 40; i++ {
		n, _ := randomFormula(m, rng, 4)
		roots = append(roots, n)
	}
	// Re-apply pairwise ops over existing roots: all warm.
	st0 := m.CacheStats()
	for i := 0; i+1 < len(roots); i++ {
		m.And(roots[i], roots[i+1])
	}
	st1 := m.CacheStats()
	if st1.Hits()+st1.Misses < st0.Hits()+st0.Misses {
		t.Fatalf("cache counters went backwards: %+v -> %+v", st0, st1)
	}
	if st1.BaseHits != 0 {
		t.Fatalf("standalone manager reported base hits: %+v", st1)
	}
	m.ClearCache()
	st2 := m.CacheStats()
	if st2 != st1 {
		t.Fatalf("ClearCache changed counters: %+v -> %+v", st1, st2)
	}
}

// TestSatCountMemoReuse pins the satellite: repeated SatCount calls on a
// warm manager must not allocate (the memo is a reused stamped slice).
func TestSatCountMemoReuse(t *testing.T) {
	m := NewManager(12)
	rng := rand.New(rand.NewSource(3))
	n, _ := randomFormula(m, rng, 6)
	want := m.SatCount(n) // first call sizes the memo
	allocs := testing.AllocsPerRun(50, func() {
		if got := m.SatCount(n); got != want {
			t.Fatalf("SatCount drifted: %v != %v", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SatCount allocates %v times per call, want 0", allocs)
	}
}
