// RefManager is the map-backed reference implementation the
// open-addressed Manager replaced, kept as a differential oracle with no
// non-test caller: the property tests replay randomized operation
// sequences against both and assert node-ID, Eval, and SatCount identity,
// and internal/equiv's backend differential runs whole checker workloads
// on it to pin report bytes. It deliberately preserves the old storage (Go maps keyed by
// structs, per-call SatCount memo map) and supports only standalone use
// — no freeze/fork — since that is all the oracle roles need.

package bdd

import "fmt"

type refNodeKey struct {
	level  int32
	lo, hi Node
}

type refOpKey struct {
	op   opKind
	a, b Node
}

// RefManager is a map-backed standalone BDD manager with the same node
// numbering as Manager: identical operation sequences yield identical
// node IDs on both, which is what makes differential checks exact.
type RefManager struct {
	numVars int
	nodes   []nodeData
	unique  map[refNodeKey]Node
	cache   map[refOpKey]Node
	pow2    []float64
}

// NewRefManager creates a reference manager over numVars variables.
func NewRefManager(numVars int) *RefManager {
	m := &RefManager{
		numVars: numVars,
		nodes:   make([]nodeData, 2, 1024),
		unique:  make(map[refNodeKey]Node, 1024),
		cache:   make(map[refOpKey]Node, 1024),
		pow2:    pow2Table(numVars),
	}
	m.nodes[False] = nodeData{level: terminalLevel}
	m.nodes[True] = nodeData{level: terminalLevel}
	return m
}

// NumVars returns the number of variables in the ordering.
func (m *RefManager) NumVars() int { return m.numVars }

// Size returns the number of nodes (including the two terminals).
func (m *RefManager) Size() int { return len(m.nodes) }

// DeltaSize mirrors Manager.DeltaSize; a reference manager is always
// standalone, so its delta is everything.
func (m *RefManager) DeltaSize() int { return len(m.nodes) }

// InBase mirrors Manager.InBase; always false for a standalone manager.
func (m *RefManager) InBase(Node) bool { return false }

// NodeAt mirrors Manager.NodeAt.
func (m *RefManager) NodeAt(n Node) (level int32, lo, hi Node) {
	d := m.nodes[n]
	return d.level, d.lo, d.hi
}

// Var returns the BDD for the single variable v.
func (m *RefManager) Var(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD for the negation of variable v.
func (m *RefManager) NVar(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(int32(v), True, False)
}

func (m *RefManager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	key := refNodeKey{level: level, lo: lo, hi: hi}
	if n, ok := m.unique[key]; ok {
		return n
	}
	n := Node(len(m.nodes))
	m.nodes = append(m.nodes, nodeData{level: level, lo: lo, hi: hi})
	m.unique[key] = n
	return n
}

// Mk interns (level, lo, hi) with the same order check as Manager.Mk.
func (m *RefManager) Mk(level int, lo, hi Node) Node {
	l := int32(level)
	if level < 0 || level >= m.numVars || l >= m.nodes[lo].level || l >= m.nodes[hi].level {
		panic(fmt.Sprintf("bdd: Mk(%d, %d, %d) violates the variable order", level, lo, hi))
	}
	return m.mk(l, lo, hi)
}

// And returns a ∧ b.
func (m *RefManager) And(a, b Node) Node { return m.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (m *RefManager) Or(a, b Node) Node { return m.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (m *RefManager) Xor(a, b Node) Node { return m.apply(opXor, a, b) }

// Not returns ¬a.
func (m *RefManager) Not(a Node) Node { return m.apply(opXor, a, True) }

// Diff returns a ∧ ¬b as a ⊕ (a ∧ b), like Manager.Diff.
func (m *RefManager) Diff(a, b Node) Node { return m.Xor(a, m.And(a, b)) }

// OrAll reduces nodes with the same balanced, deterministic OR tree as
// Manager.OrAll.
func (m *RefManager) OrAll(nodes []Node) Node {
	switch len(nodes) {
	case 0:
		return False
	case 1:
		return nodes[0]
	}
	mid := len(nodes) / 2
	return m.Or(m.OrAll(nodes[:mid]), m.OrAll(nodes[mid:]))
}

// Implies reports whether a → b is a tautology.
func (m *RefManager) Implies(a, b Node) bool { return m.Diff(a, b) == False }

// Intersects reports whether a ∧ b is satisfiable, read-only like
// Manager.Intersects.
func (m *RefManager) Intersects(a, b Node) bool {
	if a == False || b == False {
		return false
	}
	if a == True || b == True || a == b {
		return true
	}
	da, db := m.nodes[a], m.nodes[b]
	switch {
	case da.level == db.level:
		return m.Intersects(da.lo, db.lo) || m.Intersects(da.hi, db.hi)
	case da.level < db.level:
		return m.Intersects(da.lo, b) || m.Intersects(da.hi, b)
	default:
		return m.Intersects(a, db.lo) || m.Intersects(a, db.hi)
	}
}

// Equiv reports whether a and b denote the same function.
func (m *RefManager) Equiv(a, b Node) bool { return a == b }

func (m *RefManager) apply(op opKind, a, b Node) Node {
	switch op {
	case opAnd:
		switch {
		case a == False || b == False:
			return False
		case a == True:
			return b
		case b == True:
			return a
		case a == b:
			return a
		}
	case opOr:
		switch {
		case a == True || b == True:
			return True
		case a == False:
			return b
		case b == False:
			return a
		case a == b:
			return a
		}
	case opXor:
		switch {
		case a == b:
			return False
		case a == False:
			return b
		case b == False:
			return a
		}
	}
	ca, cb := a, b
	if cb < ca {
		ca, cb = cb, ca
	}
	key := refOpKey{op: op, a: ca, b: cb}
	if r, ok := m.cache[key]; ok {
		return r
	}
	da, db := m.nodes[a], m.nodes[b]
	var level int32
	var aLo, aHi, bLo, bHi Node
	switch {
	case da.level == db.level:
		level, aLo, aHi, bLo, bHi = da.level, da.lo, da.hi, db.lo, db.hi
	case da.level < db.level:
		level, aLo, aHi, bLo, bHi = da.level, da.lo, da.hi, b, b
	default:
		level, aLo, aHi, bLo, bHi = db.level, a, a, db.lo, db.hi
	}
	r := m.mk(level, m.apply(op, aLo, bLo), m.apply(op, aHi, bHi))
	m.cache[key] = r
	return r
}

// Cube returns the conjunction of literals, identically to Manager.Cube.
func (m *RefManager) Cube(literals map[int]bool) Node {
	vars := make([]int, 0, len(literals))
	for v := range literals {
		vars = append(vars, v)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	acc := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if literals[v] {
			acc = m.mk(int32(v), False, acc)
		} else {
			acc = m.mk(int32(v), acc, False)
		}
	}
	return acc
}

// SatCount returns the satisfying-assignment count of n, with the old
// per-call map memo.
func (m *RefManager) SatCount(n Node) float64 {
	memo := make(map[Node]float64)
	var count func(Node) float64
	count = func(n Node) float64 {
		if n == False {
			return 0
		}
		if n == True {
			return 1
		}
		if c, ok := memo[n]; ok {
			return c
		}
		d := m.nodes[n]
		c := count(d.lo)*m.pow2[m.refLevelOf(d.lo)-d.level-1] +
			count(d.hi)*m.pow2[m.refLevelOf(d.hi)-d.level-1]
		memo[n] = c
		return c
	}
	return count(n) * m.pow2[m.refLevelOf(n)]
}

func (m *RefManager) refLevelOf(n Node) int32 {
	l := m.nodes[n].level
	if l == terminalLevel {
		return int32(m.numVars)
	}
	return l
}

// AllSat invokes fn for every satisfying cube of n, like Manager.AllSat.
func (m *RefManager) AllSat(n Node, fn func(cube []Lit) bool) {
	cube := make([]Lit, m.numVars)
	for i := range cube {
		cube[i] = LitAny
	}
	m.refAllSat(n, cube, fn)
}

func (m *RefManager) refAllSat(n Node, cube []Lit, fn func([]Lit) bool) bool {
	if n == False {
		return true
	}
	if n == True {
		return fn(cube)
	}
	d := m.nodes[n]
	v := int(d.level)
	cube[v] = LitFalse
	if !m.refAllSat(d.lo, cube, fn) {
		cube[v] = LitAny
		return false
	}
	cube[v] = LitTrue
	if !m.refAllSat(d.hi, cube, fn) {
		cube[v] = LitAny
		return false
	}
	cube[v] = LitAny
	return true
}

// Eval evaluates n under the given full assignment.
func (m *RefManager) Eval(n Node, assignment []bool) bool {
	for n != False && n != True {
		d := m.nodes[n]
		if assignment[d.level] {
			n = d.hi
		} else {
			n = d.lo
		}
	}
	return n == True
}

// CacheStats mirrors Manager.CacheStats; the reference manager does not
// count its lookups, so the counters stay zero.
func (m *RefManager) CacheStats() CacheStats { return CacheStats{} }
