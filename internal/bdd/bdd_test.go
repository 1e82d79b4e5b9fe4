package bdd_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

func TestTerminalsAndVar(t *testing.T) {
	m := NewManager(4)
	v := m.Mk(0, False, True)
	if v == False || v == True {
		t.Fatal("x0 must be a fresh node")
	}
	if m.Mk(0, False, True) != v {
		t.Error("Mk must hash-cons")
	}
	if m.Not(v) == v {
		t.Error("¬x0 must differ from x0")
	}
}

func TestBasicAlgebra(t *testing.T) {
	m := NewManager(3)
	a, b := m.Mk(0, False, True), m.Mk(1, False, True)
	tests := []struct {
		name string
		got  Node
		want Node
	}{
		{"and-false", m.And(a, False), False},
		{"and-true", m.And(a, True), a},
		{"and-self", m.And(a, a), a},
		{"or-true", m.Or(a, True), True},
		{"or-false", m.Or(a, False), a},
		{"or-self", m.Or(a, a), a},
		{"xor-self", m.Xor(a, a), False},
		{"xor-false", m.Xor(a, False), a},
		{"not-not", m.Not(m.Not(a)), a},
		{"not-true", m.Not(True), False},
		{"excluded-middle", m.Or(a, m.Not(a)), True},
		{"contradiction", m.And(a, m.Not(a)), False},
		{"diff-self", m.Diff(a, a), False},
		{"diff-false", m.Diff(a, False), a},
		{"absorb", m.Or(a, m.And(a, b)), a},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s: got node %d, want node %d", tt.name, tt.got, tt.want)
		}
	}
}

func TestCommutativityAndDeMorgan(t *testing.T) {
	m := NewManager(4)
	a := m.And(m.Mk(0, False, True), m.Not(m.Mk(2, False, True)))
	b := m.Or(m.Mk(1, False, True), m.Mk(3, False, True))
	if m.And(a, b) != m.And(b, a) {
		t.Error("And must commute")
	}
	if m.Or(a, b) != m.Or(b, a) {
		t.Error("Or must commute")
	}
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan: ¬(a∧b) = ¬a∨¬b")
	}
	if m.Not(m.Or(a, b)) != m.And(m.Not(a), m.Not(b)) {
		t.Error("De Morgan: ¬(a∨b) = ¬a∧¬b")
	}
}

// randomFormula builds a random boolean function bottom-up and in parallel
// evaluates it as a truth table, giving an exact oracle.
func randomFormula(m *Manager, nVars int, rng *rand.Rand, depth int) (Node, []bool) {
	table := func(f func(assign uint) bool) []bool {
		tt := make([]bool, 1<<nVars)
		for a := uint(0); a < uint(len(tt)); a++ {
			tt[a] = f(a)
		}
		return tt
	}
	if depth == 0 || rng.Intn(3) == 0 {
		v := rng.Intn(nVars)
		if rng.Intn(2) == 0 {
			return m.Mk(v, False, True), table(func(a uint) bool { return a&(1<<v) != 0 })
		}
		return m.Not(m.Mk(v, False, True)), table(func(a uint) bool { return a&(1<<v) == 0 })
	}
	l, lt := randomFormula(m, nVars, rng, depth-1)
	r, rt := randomFormula(m, nVars, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(l, r), table(func(a uint) bool { return lt[a] && rt[a] })
	case 1:
		return m.Or(l, r), table(func(a uint) bool { return lt[a] || rt[a] })
	case 2:
		return m.Xor(l, r), table(func(a uint) bool { return lt[a] != rt[a] })
	default:
		return m.Not(l), table(func(a uint) bool { return !lt[a] })
	}
}

func TestRandomFormulaMatchesTruthTable(t *testing.T) {
	const nVars = 6
	f := func(seed int64) bool {
		m := NewManager(nVars)
		rng := rand.New(rand.NewSource(seed))
		n, tt := randomFormula(m, nVars, rng, 5)
		for a := uint(0); a < 1<<nVars; a++ {
			assign := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				assign[v] = a&(1<<v) != 0
			}
			if oracle.Eval(m, n, assign) != tt[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCanonicityQuick(t *testing.T) {
	// Two formulas with equal truth tables must map to the same node.
	const nVars = 5
	f := func(seed int64) bool {
		m := NewManager(nVars)
		rng := rand.New(rand.NewSource(seed))
		n1, t1 := randomFormula(m, nVars, rng, 4)
		n2, t2 := randomFormula(m, nVars, rng, 4)
		equalTables := true
		for i := range t1 {
			if t1[i] != t2[i] {
				equalTables = false
				break
			}
		}
		return equalTables == (n1 == n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSatCount(t *testing.T) {
	m := NewManager(4)
	tests := []struct {
		name string
		n    Node
		want float64
	}{
		{"false", False, 0},
		{"true", True, 16},
		{"var", m.Mk(0, False, True), 8},
		{"and2", m.And(m.Mk(0, False, True), m.Mk(1, False, True)), 4},
		{"or2", m.Or(m.Mk(0, False, True), m.Mk(1, False, True)), 12},
		{"xor", m.Xor(m.Mk(2, False, True), m.Mk(3, False, True)), 8},
	}
	for _, tt := range tests {
		if got := oracle.SatCount(m, 4, tt.n); got != tt.want {
			t.Errorf("%s: SatCount = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestSatCountMatchesTruthTableQuick(t *testing.T) {
	const nVars = 6
	f := func(seed int64) bool {
		m := NewManager(nVars)
		rng := rand.New(rand.NewSource(seed))
		n, tt := randomFormula(m, nVars, rng, 5)
		count := 0.0
		for _, v := range tt {
			if v {
				count++
			}
		}
		return oracle.SatCount(m, nVars, n) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCube(t *testing.T) {
	m := NewManager(4)
	c := m.Cube(map[int]bool{0: true, 2: false})
	if n := oracle.SatCount(m, 4, c); n != 4 { // two free variables
		t.Errorf("cube SatCount = %v, want 4", n)
	}
	if !oracle.Eval(m, c, []bool{true, false, false, true}) {
		t.Error("cube should accept x0=1,x2=0")
	}
	if oracle.Eval(m, c, []bool{true, false, true, true}) {
		t.Error("cube should reject x2=1")
	}
	// Equivalent to explicit conjunction.
	want := m.And(m.Mk(0, False, True), m.Not(m.Mk(2, False, True)))
	if c != want {
		t.Error("Cube must equal the literal conjunction")
	}
	if m.Cube(nil) != True {
		t.Error("empty cube is True")
	}
}

// TestImplies: a implies b exactly when Diff(a, b), the part of a that b
// lacks, is False.
func TestImplies(t *testing.T) {
	m := NewManager(3)
	ab := m.And(m.Mk(0, False, True), m.Mk(1, False, True))
	a := m.Mk(0, False, True)
	if m.Diff(ab, a) != False {
		t.Error("a∧b → a")
	}
	if m.Diff(a, ab) == False {
		t.Error("a does not imply a∧b")
	}
	if m.Diff(False, a) != False || m.Diff(a, True) != False {
		t.Error("False implies everything; everything implies True")
	}
}

func TestSizeGrowsAndIsShared(t *testing.T) {
	m := NewManager(8)
	before := m.Size()
	f1 := m.And(m.Mk(0, False, True), m.Mk(1, False, True))
	mid := m.Size()
	if mid <= before {
		t.Error("building a formula must allocate nodes")
	}
	f2 := m.And(m.Mk(1, False, True), m.Mk(0, False, True)) // same function
	if f1 != f2 || m.Size() != mid {
		t.Error("equal functions must share structure without new nodes")
	}
}

// orAll ORs nodes as a balanced binary tree.
func orAll(m *Manager, nodes []Node) Node {
	switch len(nodes) {
	case 0:
		return False
	case 1:
		return nodes[0]
	}
	mid := len(nodes) / 2
	return m.Or(orAll(m, nodes[:mid]), orAll(m, nodes[mid:]))
}

// TestOrAll: a disjunction is one node however it is associated — a
// balanced OR tree and a left fold meet at the same root.
func TestOrAll(t *testing.T) {
	m := NewManager(6)
	for _, nodes := range [][]Node{
		{m.Mk(0, False, True), m.Mk(1, False, True), m.Mk(2, False, True), m.Mk(3, False, True), m.Mk(4, False, True)},
		{
			m.Cube(map[int]bool{0: true, 1: false}),
			m.Cube(map[int]bool{0: false, 2: true}),
			m.Cube(map[int]bool{3: true, 4: true, 5: false}),
		},
	} {
		fold := False
		for _, n := range nodes {
			fold = m.Or(fold, n)
		}
		if got := orAll(m, nodes); got != fold {
			t.Errorf("balanced OR = node %d, left fold = node %d (canonicity violated)", got, fold)
		}
	}
}

// TestInBase: a function the snapshot holds — a frozen node, a terminal,
// or one a fork rebuilds from frozen operands — is a frozen node in every
// fork, and only a novel function lands in the fork's delta.
func TestInBase(t *testing.T) {
	m := NewManager(4)
	frozen := m.And(m.Mk(0, False, True), m.Mk(1, False, True))
	snap := m.Freeze()

	fork := NewManagerFrom(snap)
	if !snap.Contains(frozen) || !snap.Contains(True) || !snap.Contains(False) {
		t.Error("frozen nodes and terminals must be in the base")
	}
	if got := fork.And(fork.Mk(0, False, True), fork.Mk(1, False, True)); got != frozen {
		t.Errorf("base-expressible function is node %d, want frozen node %d", got, frozen)
	}
	novel := fork.And(fork.Mk(2, False, True), fork.Mk(3, False, True))
	if snap.Contains(novel) || fork.DeltaSize() == 0 {
		t.Error("novel function must live in the delta")
	}
}

// TestMkChecksVariableOrder: Mk interns a node only strictly above both
// cofactors; a level at or below either top, or outside the ordering, is
// a caller bug and panics on both engines.
func TestMkChecksVariableOrder(t *testing.T) {
	type mker interface {
		Mk(level int, lo, hi Node) Node
	}
	for name, m := range map[string]mker{"manager": NewManager(4), "ref": oracle.NewRefManager(4)} {
		x2 := m.Mk(2, False, True)
		if got := m.Mk(1, x2, x2); got != x2 {
			t.Errorf("%s: Mk with equal cofactors = node %d, want the cofactor %d", name, got, x2)
		}
		if n := m.Mk(1, False, x2); n == x2 || n != m.Mk(1, False, x2) {
			t.Errorf("%s: Mk is not interning", name)
		}
		for _, bad := range []struct {
			level  int
			lo, hi Node
		}{
			{2, False, x2}, // same level as a cofactor
			{3, x2, True},  // below a cofactor
			{-1, False, True},
			{4, False, True},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Mk(%d, %d, %d) must panic", name, bad.level, bad.lo, bad.hi)
					}
				}()
				m.Mk(bad.level, bad.lo, bad.hi)
			}()
		}
	}
}
