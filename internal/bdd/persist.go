// Snapshot persistence support: the introspection and reconstruction
// surface the durable warm-state store (internal/store) is built on. A
// frozen Snapshot is fully determined by its variable count and flat
// (level, lo, hi) node array — the unique table is a dense index over
// those triples — so NodeAt exposes the array for encoding and
// RebuildSnapshot re-interns it on load, validating the ROBDD invariants
// so a corrupted file can never produce a snapshot that violates
// canonicity.

package bdd

import "fmt"

// NodeAt returns the (level, lo, hi) triple of frozen node i. Indices 0
// and 1 are the terminals (level == NumVars() sentinel reported as-is is
// not useful to callers, so terminals report their stored sentinel; a
// codec only needs the triple to round-trip). It is safe for concurrent
// use, like every Snapshot read.
func (s *Snapshot) NodeAt(i int) (level int32, lo, hi Node) {
	d := s.nodes[i]
	return d.level, d.lo, d.hi
}

// RebuildSnapshot reconstructs a frozen Snapshot from a flat node
// stream: node(i) must return the triple NodeAt(i) reported when the
// snapshot was encoded, for i in [2, numNodes). The unique table is
// rebuilt by re-interning every triple, so node IDs — and therefore
// every memoized root referring into the snapshot — are preserved
// exactly, and a rebuilt snapshot is the one that was encoded.
//
// The ROBDD structural invariants are validated as the array is
// replayed — levels in range, children preceding parents, no redundant
// (lo == hi) nodes, no duplicate triples — so a corrupted or
// hand-forged byte stream is rejected here even if it passed the
// codec's checksum.
func RebuildSnapshot(numVars, numNodes int, node func(i int) (level int32, lo, hi Node)) (*Snapshot, error) {
	if numVars <= 0 || numVars > 1<<20 {
		return nil, fmt.Errorf("bdd: rebuild: variable count %d out of range", numVars)
	}
	if numNodes < 2 {
		return nil, fmt.Errorf("bdd: rebuild: node count %d below the two terminals", numNodes)
	}
	s := &Snapshot{
		numVars: numVars,
		nodes:   make([]nodeData, 2, numNodes),
		unique:  newNodeTable(numNodes),
	}
	s.nodes[False] = nodeData{level: terminalLevel}
	s.nodes[True] = nodeData{level: terminalLevel}
	for i := 2; i < numNodes; i++ {
		level, lo, hi := node(i)
		if level < 0 || int(level) >= numVars {
			return nil, fmt.Errorf("bdd: rebuild: node %d level %d out of range [0,%d)", i, level, numVars)
		}
		if lo < 0 || int(lo) >= i || hi < 0 || int(hi) >= i {
			return nil, fmt.Errorf("bdd: rebuild: node %d children (%d,%d) not below id", i, lo, hi)
		}
		if lo == hi {
			return nil, fmt.Errorf("bdd: rebuild: node %d is redundant (lo == hi == %d)", i, lo)
		}
		// Children must be strictly deeper in the ordering (terminals sit
		// at the sentinel level below everything).
		if s.nodes[lo].level <= level || s.nodes[hi].level <= level {
			return nil, fmt.Errorf("bdd: rebuild: node %d level %d not above its children", i, level)
		}
		if dup := s.unique.lookup(s.nodes, 0, level, lo, hi); dup != 0 {
			return nil, fmt.Errorf("bdd: rebuild: node %d duplicates node %d", i, dup)
		}
		s.nodes = append(s.nodes, nodeData{level: level, lo: lo, hi: hi})
		s.unique.insert(s.nodes, 0, Node(i))
	}
	return s, nil
}
