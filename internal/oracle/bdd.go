// Package oracle holds the slow, obviously-right references the tests
// hold the production engines to: a map-backed BDD manager, reads of a
// diagram node by node, a key-set checker, a key deduplicator, a match's
// test of one packet, an order-preserving ID renumbering, and the byte
// source the tests' generators read their choices from, and the paper's
// Figure 1 policy. Only tests import it; arch_test.go enforces that. It
// imports nothing of the module but bdd, rule, object and policy, so the
// tests of every other package can use it, and those four packages' tests
// use it from external test packages.
package oracle

import (
	"fmt"
	"math"

	"scout/internal/bdd"
)

// terminalLevel is the level bdd.Manager.NodeAt reports for a terminal:
// below every variable.
const terminalLevel = math.MaxInt32

type refNode struct {
	level  int32
	lo, hi bdd.Node
}

type opKind uint8

const (
	opAnd opKind = iota + 1
	opOr
	opXor
)

type refOpKey struct {
	op   opKind
	a, b bdd.Node
}

// RefManager is the map-backed reference implementation the
// open-addressed bdd.Manager replaced. It numbers nodes as the Manager
// does: identical operation sequences yield identical node IDs on both,
// which is what makes differential checks exact. It satisfies
// equiv.Backend, so a whole checker runs on it. It supports standalone
// use only — no freeze or fork.
type RefManager struct {
	numVars int
	nodes   []refNode
	unique  map[refNode]bdd.Node
	cache   map[refOpKey]bdd.Node
}

// NewRefManager creates a reference manager over numVars variables.
func NewRefManager(numVars int) *RefManager {
	m := &RefManager{
		numVars: numVars,
		nodes:   make([]refNode, 2, 1024),
		unique:  make(map[refNode]bdd.Node, 1024),
		cache:   make(map[refOpKey]bdd.Node, 1024),
	}
	m.nodes[bdd.False] = refNode{level: terminalLevel}
	m.nodes[bdd.True] = refNode{level: terminalLevel}
	return m
}

// Size returns the number of nodes (including the two terminals).
func (m *RefManager) Size() int { return len(m.nodes) }

// DeltaSize mirrors Manager.DeltaSize; a reference manager is always
// standalone, so its delta is everything.
func (m *RefManager) DeltaSize() int { return len(m.nodes) }

// CacheStats mirrors Manager.CacheStats; the reference manager does not
// count its lookups, so the counters stay zero.
func (m *RefManager) CacheStats() bdd.CacheStats { return bdd.CacheStats{} }

// NodeAt mirrors Manager.NodeAt.
func (m *RefManager) NodeAt(n bdd.Node) (level int32, lo, hi bdd.Node) {
	d := m.nodes[n]
	return d.level, d.lo, d.hi
}

func (m *RefManager) mk(level int32, lo, hi bdd.Node) bdd.Node {
	if lo == hi {
		return lo
	}
	key := refNode{level: level, lo: lo, hi: hi}
	if n, ok := m.unique[key]; ok {
		return n
	}
	n := bdd.Node(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = n
	return n
}

// Mk interns (level, lo, hi) with the same order check as Manager.Mk.
func (m *RefManager) Mk(level int, lo, hi bdd.Node) bdd.Node {
	l := int32(level)
	if level < 0 || level >= m.numVars || l >= m.nodes[lo].level || l >= m.nodes[hi].level {
		panic(fmt.Sprintf("bdd: Mk(%d, %d, %d) violates the variable order", level, lo, hi))
	}
	return m.mk(l, lo, hi)
}

// And returns a ∧ b.
func (m *RefManager) And(a, b bdd.Node) bdd.Node { return m.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (m *RefManager) Or(a, b bdd.Node) bdd.Node { return m.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (m *RefManager) Xor(a, b bdd.Node) bdd.Node { return m.apply(opXor, a, b) }

// Not returns ¬a.
func (m *RefManager) Not(a bdd.Node) bdd.Node { return m.apply(opXor, a, bdd.True) }

// Diff returns a ∧ ¬b as a ⊕ (a ∧ b), like Manager.Diff.
func (m *RefManager) Diff(a, b bdd.Node) bdd.Node { return m.Xor(a, m.And(a, b)) }

func (m *RefManager) apply(op opKind, a, b bdd.Node) bdd.Node {
	const False, True = bdd.False, bdd.True
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
	var aLo, aHi, bLo, bHi bdd.Node
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
func (m *RefManager) Cube(literals map[int]bool) bdd.Node {
	vars := make([]int, 0, len(literals))
	for v := range literals {
		vars = append(vars, v)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	acc := bdd.True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if literals[v] {
			acc = m.mk(int32(v), bdd.False, acc)
		} else {
			acc = m.mk(int32(v), acc, bdd.False)
		}
	}
	return acc
}

// reader is a manager read one node at a time: *bdd.Manager (frozen,
// fork or standalone) and *RefManager both are.
type reader interface {
	NodeAt(n bdd.Node) (level int32, lo, hi bdd.Node)
}

// Eval evaluates n under the full assignment (indexed by variable).
func Eval(m reader, n bdd.Node, assignment []bool) bool {
	for n != bdd.False && n != bdd.True {
		level, lo, hi := m.NodeAt(n)
		if assignment[level] {
			n = hi
		} else {
			n = lo
		}
	}
	return n == bdd.True
}

// SatCount returns the number of assignments over all numVars variables
// that satisfy n.
func SatCount(m reader, numVars int, n bdd.Node) float64 {
	top := func(n bdd.Node) int {
		level, _, _ := m.NodeAt(n)
		return min(int(level), numVars)
	}
	memo := make(map[bdd.Node]float64)
	// count is n's satisfying assignments of the variables from its level down.
	var count func(bdd.Node) float64
	count = func(n bdd.Node) float64 {
		switch n {
		case bdd.False:
			return 0
		case bdd.True:
			return 1
		}
		if c, ok := memo[n]; ok {
			return c
		}
		level, lo, hi := m.NodeAt(n)
		c := count(lo)*math.Ldexp(1, top(lo)-int(level)-1) + count(hi)*math.Ldexp(1, top(hi)-int(level)-1)
		memo[n] = c
		return c
	}
	return count(n) * math.Ldexp(1, top(n))
}
