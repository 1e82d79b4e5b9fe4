// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with hash-consing, the data structure behind the paper's L-T
// equivalence checker (§III-C): two rule sets are behaviourally equal iff
// their ROBDDs have the same root node.
//
// The implementation is a classic shared-node manager: every (variable,
// low, high) triple is interned in a unique table so structural equality
// is pointer (node-ID) equality, and binary operations are memoized in an
// operation cache. The checker itself needs little of it: Mk, to intern
// the diagrams it compiles directly from rule lists; Diff, for the
// behaviour one side has and the other lacks; and NodeAt, to walk that
// difference under each rule's constraints. The rest of the standard
// algebra (Var, Cube, And, Or, Xor, Not) is what Diff is built from, and
// what the benchmark's probe encoder and the tests build diagrams with.
// Nothing here reads a diagram back but NodeAt: evaluation, model counting
// and the map-backed reference engine the tests hold this one to live in
// internal/oracle.
//
// Storage is struct-of-arrays: nodes live in a flat []nodeData slice and
// the unique table and operation cache are custom open-addressed tables
// over packed machine-word keys (tables.go) rather than Go maps — node
// IDs and operation results are identical to the map-backed layout (the
// op cache never evicts), only the per-operation cost changes.
//
// A manager can be frozen into an immutable Snapshot (Freeze) and forked
// (NewManagerFrom): forks extend the frozen node-ID prefix with a private
// delta, so any number of forks share the snapshot's nodes lock-free
// while building their own. This is how the equivalence checker shares
// one warm encoding base across check-stage workers.
package bdd

import (
	"fmt"
	"math"
)

// Node identifies a BDD node within its Manager. The terminals False and
// True are pre-allocated in every manager. Node IDs are stable across
// Freeze/NewManagerFrom: a node built against a snapshot's manager keeps
// its ID in every fork of that snapshot.
type Node int32

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

type nodeData struct {
	level  int32 // variable index; terminals use level = maxLevel sentinel
	lo, hi Node
}

type opKind uint8

const (
	opAnd opKind = iota + 1
	opOr
	opXor
)

const terminalLevel = math.MaxInt32

// Snapshot is an immutable, frozen view of a manager's node pool: a
// variable count and the node array under its unique table — what the
// store writes and RebuildSnapshot reads back. It carries no operation
// cache: a fork memoizes the operations it performs in a table of its
// own. A Snapshot is safe for lock-free concurrent reads — any number of
// goroutines may fork managers from it (NewManagerFrom) and read its
// nodes through them, or share it between checkers; nothing ever mutates
// it.
type Snapshot struct {
	numVars int
	nodes   []nodeData
	unique  nodeTable
}

// NumVars returns the number of variables in the snapshot's ordering.
func (s *Snapshot) NumVars() int { return s.numVars }

// Size returns the number of frozen nodes (including the two terminals).
func (s *Snapshot) Size() int { return len(s.nodes) }

// Contains reports whether n is a node of the frozen prefix (valid in
// every fork of this snapshot).
func (s *Snapshot) Contains(n Node) bool { return n >= 0 && int(n) < len(s.nodes) }

// deltaHint is the default fork table pre-sizing derived from the frozen
// base's observed size: forks of a heavily-loaded base tend to build
// proportionally larger deltas (dirty-switch re-encodes against a big
// deployment), while tiny bases should not drag 64 KiB tables into every
// short-lived fork. Callers that know their actual delta budget use
// NewManagerFromSized instead.
func (s *Snapshot) deltaHint() int {
	h := len(s.nodes) / 8
	if h < 1024 {
		return 1024
	}
	if h > 1<<16 {
		return 1 << 16
	}
	return h
}

// CacheStats counts operation-cache outcomes on a manager's apply path:
// lookups the table answered and lookups that recursed. The table is
// exact, so both are a function of the operation stream alone.
type CacheStats struct {
	HitCount uint64
	Misses   uint64
}

// Hits returns the lookups answered from the cache.
func (s CacheStats) Hits() uint64 { return s.HitCount }

// Add accumulates other into s.
func (s *CacheStats) Add(other CacheStats) {
	s.HitCount += other.HitCount
	s.Misses += other.Misses
}

// Manager owns a shared BDD node pool over a fixed number of boolean
// variables. Variable 0 is the topmost in the ordering. A Manager is not
// safe for concurrent use; share work across goroutines by freezing one
// manager and forking it per goroutine instead.
type Manager struct {
	numVars int
	// base is the frozen prefix this manager extends (nil for standalone
	// managers). Node IDs < baseLen resolve through base; IDs >= baseLen
	// index nodes (the private delta) at offset -baseLen.
	base    *Snapshot
	baseLen int
	frozen  bool
	nodes   []nodeData
	unique  nodeTable
	cache   opCache
	stats   CacheStats
}

// NewManager creates a manager over numVars boolean variables.
func NewManager(numVars int) *Manager {
	m := &Manager{
		numVars: numVars,
		nodes:   make([]nodeData, 2, 1024),
		unique:  newNodeTable(1024),
		cache:   newOpCache(1024),
	}
	m.nodes[False] = nodeData{level: terminalLevel}
	m.nodes[True] = nodeData{level: terminalLevel}
	return m
}

// NewManagerFrom creates a manager extending the frozen snapshot: every
// snapshot node keeps its ID and meaning, and new nodes are interned in a
// private delta starting at ID snapshot.Size(). Creating a fork is O(1)
// — no node copying — so per-worker forks of a large shared base are
// cheap, and discarding one (building a replacement fork) discards only
// its delta. Delta tables are pre-sized from the base's observed load;
// callers that know their delta budget use NewManagerFromSized.
func NewManagerFrom(s *Snapshot) *Manager {
	return NewManagerFromSized(s, s.deltaHint())
}

// NewManagerFromSized is NewManagerFrom with an explicit delta budget:
// the fork's node array and tables are pre-sized for roughly deltaNodes
// delta nodes, so a caller that knows its working-set bound (a session
// checker with a node budget) skips the incremental growth ramp.
func NewManagerFromSized(s *Snapshot, deltaNodes int) *Manager {
	if deltaNodes < 16 {
		deltaNodes = 16
	}
	return &Manager{
		numVars: s.numVars,
		base:    s,
		baseLen: len(s.nodes),
		nodes:   make([]nodeData, 0, deltaNodes),
		unique:  newNodeTable(deltaNodes),
		cache:   newOpCache(deltaNodes),
	}
}

// Freeze seals the manager's node pool into an immutable Snapshot and
// marks the manager frozen: any further node construction panics, which
// is what guarantees the snapshot's readers never race a writer. Freeze
// is for standalone managers (the warmup pass); freezing a fork panics —
// re-freeze-and-extend is not supported. The snapshot's unique table is
// indexed as RebuildSnapshot indexes a decoded one (indexNodes), so a
// frozen snapshot and its decoded image are one value.
func (m *Manager) Freeze() *Snapshot {
	if m.base != nil {
		panic("bdd: Freeze on a forked manager is not supported")
	}
	m.frozen = true
	return &Snapshot{
		numVars: m.numVars,
		nodes:   m.nodes,
		unique:  indexNodes(m.nodes, m.unique.slots),
	}
}

// Size returns the number of live nodes reachable through this manager
// (including the two terminals and, for forks, the whole frozen base).
func (m *Manager) Size() int { return m.baseLen + len(m.nodes) }

// DeltaSize returns the number of nodes owned by this manager itself:
// everything beyond the frozen base for forks, Size() for standalone
// managers: the base is shared and immutable.
func (m *Manager) DeltaSize() int { return len(m.nodes) }

// CacheStats returns the cumulative operation-cache hit/miss counters.
func (m *Manager) CacheStats() CacheStats { return m.stats }

// CompactStats counted the delta nodes a compaction kept and shed.
//
// Deprecated: nothing compacts a delta any more; CompactStats stays 0
// until bench/ stops reading it (ROADMAP item 1, shims).
type CompactStats struct {
	Retained int
	Dropped  int
}

// Deprecated: CompactDelta does nothing — no manager outlives the check
// it was forked for, so none sheds its delta in place. It stays until
// bench/ stops timing it (ROADMAP item 1, shims).
func (m *Manager) CompactDelta([]Node) {}

// node resolves a node ID through the frozen base or the private delta.
func (m *Manager) node(n Node) nodeData {
	if int(n) < m.baseLen {
		return m.base.nodes[n]
	}
	return m.nodes[int(n)-m.baseLen]
}

// NodeAt returns the (level, lo, hi) triple of node n, frozen or delta:
// the read a caller needs to walk a diagram under constraints of its own
// (equiv attributes a difference to rules that way) without building
// anything. Terminals report a level past every variable.
func (m *Manager) NodeAt(n Node) (level int32, lo, hi Node) {
	d := m.node(n)
	return d.level, d.lo, d.hi
}

// mk interns the node (level, lo, hi), applying the ROBDD reduction rule.
// Nodes already interned in the frozen base resolve to their base ID, so
// forks sharing a base agree on the identity of every base-expressible
// function.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	if m.base != nil {
		if n := m.base.unique.lookup(m.base.nodes, 0, level, lo, hi); n != 0 {
			return n
		}
	}
	if n := m.unique.lookup(m.nodes, m.baseLen, level, lo, hi); n != 0 {
		return n
	}
	if m.frozen {
		panic("bdd: node construction on a frozen manager")
	}
	n := Node(m.baseLen + len(m.nodes))
	m.nodes = append(m.nodes, nodeData{level: level, lo: lo, hi: hi})
	m.unique.insert(m.nodes, m.baseLen, n)
	return n
}

// Mk interns the node testing variable level with the given cofactors and
// returns its canonical ID (lo itself when lo == hi). It is the
// construction primitive for callers that already know the shape of the
// ROBDD they want — the equivalence checker compiles rule lists straight
// to their canonical diagram with it — and touches neither the operation
// cache nor any intermediate node. The ordering invariant is the caller's
// to keep and is checked: level must be a variable strictly above both
// cofactors' top variables; anything else is a bug in the caller and
// panics, like Var on an out-of-range variable.
func (m *Manager) Mk(level int, lo, hi Node) Node {
	l := int32(level)
	if level < 0 || level >= m.numVars || l >= m.node(lo).level || l >= m.node(hi).level {
		panic(fmt.Sprintf("bdd: Mk(%d, %d, %d) violates the variable order", level, lo, hi))
	}
	return m.mk(l, lo, hi)
}

// And returns a ∧ b.
func (m *Manager) And(a, b Node) Node { return m.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b Node) Node { return m.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b Node) Node { return m.apply(opXor, a, b) }

// Not returns ¬a.
func (m *Manager) Not(a Node) Node { return m.apply(opXor, a, True) }

// Diff returns a ∧ ¬b — the satisfying assignments of a not covered by b.
// This is the "missing behaviour" operator of the equivalence checker. It
// is computed as a ⊕ (a ∧ b), which complements neither operand: when a
// and b share most of their nodes — a switch's logical and deployed
// semantics — both applies stop at every shared node, so the work and the
// nodes built follow the paths that differ, not the size of b.
func (m *Manager) Diff(a, b Node) Node { return m.Xor(a, m.And(a, b)) }

func (m *Manager) apply(op opKind, a, b Node) Node {
	// A frozen manager's node array and unique table are shared with its
	// snapshot's readers, and any operation may intern a node, so
	// operations are cut off wholesale. (NodeAt stays valid; it builds
	// nothing.)
	if m.frozen {
		panic("bdd: boolean operations on a frozen manager")
	}
	// Terminal short-circuits.
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

	// Normalize operand order for the commutative ops to halve the cache.
	ca, cb := a, b
	if cb < ca {
		ca, cb = cb, ca
	}
	key := packOpKey(op, ca, cb)
	if r, ok := m.cache.lookup(key); ok {
		m.stats.HitCount++
		return r
	}
	m.stats.Misses++

	da, db := m.node(a), m.node(b)
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
	m.cache.insert(key, r)
	return r
}

// Cube returns the conjunction of literals: for each (variable, value)
// pair, variable if value is true, its negation otherwise. Literals must
// be given in ascending variable order for best performance but any order
// is accepted.
func (m *Manager) Cube(literals map[int]bool) Node {
	// Build bottom-up in descending variable order for linear node count.
	vars := make([]int, 0, len(literals))
	for v := range literals {
		vars = append(vars, v)
	}
	// insertion sort: literal maps are small (tens of variables)
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
