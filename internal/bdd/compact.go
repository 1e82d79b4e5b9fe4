// Delta garbage collection. A long-lived fork accumulates delta nodes
// from every compile it performs; most become unreachable once their
// check reports. CompactDelta rebuilds the delta densely around the
// caller's live roots and returns where each surviving node moved, so a
// caller can shed dead nodes and keep the roots it still names.

package bdd

// NoNode is the remap result for a node that did not survive compaction.
const NoNode Node = -1

// Remap is the old→new node-ID mapping produced by CompactDelta. IDs at
// or above the pinned prefix map through the dense rebuild; pinned IDs
// (the frozen base, or the terminals of a standalone manager) map to
// themselves. The mapping is monotone: live nodes keep their relative
// order, they only slide down over freed slots.
type Remap struct {
	pin   int
	delta []Node
}

// CompactStats reports what one CompactDelta call kept and shed.
type CompactStats struct {
	// Retained and Dropped count delta nodes (never base nodes or
	// terminals, which are pinned).
	Retained int
	Dropped  int
}

// CompactDelta drops every delta node not reachable from roots, rebuilds
// the delta arrays and tables densely, and returns the old→new ID remap
// the caller must apply to any node IDs it retains (memo tables, cached
// results). Base nodes and terminals are pinned and never move. The
// operation cache names nodes by their old IDs, so it starts again empty:
// operations repeated after a compaction recurse once more and, the
// unique table being rebuilt, arrive at the nodes that survived.
//
// Roots may include base nodes, terminals, and duplicates; they cost
// nothing. Compacting with every reachable node live is the identity
// mapping, so the call is idempotent.
func (m *Manager) CompactDelta(roots []Node) (*Remap, CompactStats) {
	if m.frozen {
		panic("bdd: CompactDelta on a frozen manager")
	}
	// pin is the first compactable absolute ID: the frozen prefix for
	// forks, the two terminals for standalone managers (whose nodes
	// slice stores them at indices 0 and 1).
	pin := m.baseLen
	if m.base == nil {
		pin = 2
	}
	pinJ := pin - m.baseLen // delta index of the first compactable node

	// Mark. Children always have smaller IDs than their parent (mk
	// creates bottom-up), so one descending sweep after seeding the
	// roots propagates liveness without a stack.
	live := make([]bool, len(m.nodes))
	for _, r := range roots {
		if int(r) >= pin {
			live[int(r)-m.baseLen] = true
		}
	}
	for j := len(m.nodes) - 1; j >= pinJ; j-- {
		if !live[j] {
			continue
		}
		d := &m.nodes[j]
		if int(d.lo) >= pin {
			live[int(d.lo)-m.baseLen] = true
		}
		if int(d.hi) >= pin {
			live[int(d.hi)-m.baseLen] = true
		}
	}

	// Rebuild the node array in place, ascending so every child is
	// remapped before the parents that reference it. The slice keeps
	// its capacity: compaction frees logical nodes, not the arena.
	remap := make([]Node, len(m.nodes))
	for j := 0; j < pinJ; j++ {
		remap[j] = Node(j) // standalone terminals stay put
	}
	dst := pinJ
	for j := pinJ; j < len(m.nodes); j++ {
		if !live[j] {
			remap[j] = NoNode
			continue
		}
		d := m.nodes[j]
		if int(d.lo) >= pin {
			d.lo = remap[int(d.lo)-m.baseLen]
		}
		if int(d.hi) >= pin {
			d.hi = remap[int(d.hi)-m.baseLen]
		}
		m.nodes[dst] = d
		remap[j] = Node(m.baseLen + dst)
		dst++
	}
	stats := CompactStats{
		Retained: dst - pinJ,
		Dropped:  len(m.nodes) - dst,
	}
	m.nodes = m.nodes[:dst]

	// Rebuild the unique table over the surviving nodes.
	m.unique = newNodeTable(stats.Retained)
	for j := pinJ; j < dst; j++ {
		m.unique.insert(m.nodes, m.baseLen, Node(m.baseLen+j))
	}

	m.cache = newOpCache(stats.Retained)

	return &Remap{pin: pin, delta: remap[pinJ:]}, stats
}
