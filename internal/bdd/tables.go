// Open-addressed hash tables backing the manager's hot path: the unique
// (interning) table and the operation cache. Go maps in their place
// (map[nodeKey]Node, map[opKey]Node) dominated per-mk cost — hashing a
// 12-byte struct key through the runtime's generic hasher, then bucket
// chasing. Both tables here pack their keys into machine words, hash with
// a xorshift-multiply mix, probe linearly over power-of-two slot arrays,
// and never need tombstones: entries are only ever inserted, and bulk
// removal happens by rebuilding.
//
// Node IDs are non-negative int32s, so a (level, lo, hi) triple packs
// into two 64-bit words and an (op, a, b) operation key into one: op
// needs 2 bits and each operand 31, exactly filling a word. Valid op
// keys are never zero (op kinds start at 1), and no interned node has ID
// 0, so in both tables a zero slot is an empty slot.

package bdd

// hashMix is a xorshift-multiply finalizer (the splitmix64/murmur3 tail):
// every input bit avalanches into the slot index, which linear probing
// needs to keep runs short.
func hashMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x
}

// hashNode hashes an interning key. lo and hi fill one word, the level
// perturbs via a second mix round.
func hashNode(level int32, lo, hi Node) uint64 {
	return hashMix(uint64(uint32(lo))<<32 | uint64(uint32(hi)) + uint64(uint32(level))*0xbf58476d1ce4e5b9)
}

// pow2Slots rounds a desired entry count up to a power-of-two slot count
// with room to stay under the ~3/4 load-factor growth trigger.
func pow2Slots(entries int) int {
	c := 16
	for c*3 < entries*4 {
		c <<= 1
	}
	return c
}

// nodeTable is the unique (interning) table: it maps (level, lo, hi) to
// the node's ID without storing the triple at all — each slot holds just
// the node ID, and probes compare against the node array itself (the
// nodes slice is the struct-of-arrays ground truth; the table is a dense
// int32 index over it). Slot value 0 means empty: the terminals are
// pre-allocated and never interned, so no stored ID is ever 0.
//
// A frozen table is read-only and therefore safe for concurrent lookups
// (the shared-base snapshot contract).
type nodeTable struct {
	slots []Node
	count int
}

func newNodeTable(entries int) nodeTable {
	return nodeTable{slots: make([]Node, pow2Slots(entries))}
}

// indexNodes returns the unique table of a frozen node array: every node
// past the terminals inserted in ID order into a table sized for the
// array, reusing spare's slots when it has that many. The layout is a
// function of the nodes alone, and RebuildSnapshot's, which inserts the
// same way, is the same.
func indexNodes(nodes []nodeData, spare []Node) nodeTable {
	t := nodeTable{slots: spare}
	if len(spare) == pow2Slots(len(nodes)) {
		clear(t.slots)
	} else {
		t = newNodeTable(len(nodes))
	}
	for id := 2; id < len(nodes); id++ {
		t.insert(nodes, 0, Node(id))
	}
	return t
}

// lookup returns the ID interned for (level, lo, hi), or 0. Stored IDs
// index nodes at offset -off (a fork's delta table stores absolute IDs
// but owns only the delta slice).
func (t *nodeTable) lookup(nodes []nodeData, off int, level int32, lo, hi Node) Node {
	mask := uint64(len(t.slots) - 1)
	for i := hashNode(level, lo, hi) & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0
		}
		if d := &nodes[int(id)-off]; d.level == level && d.lo == lo && d.hi == hi {
			return id
		}
	}
}

// insert adds a freshly interned node's ID. The caller guarantees the
// key is absent (mk looks up first), so probing stops at the first empty
// slot. Growth rebuilds the slot array from the node data — tombstone
// free, since nothing is ever individually deleted.
func (t *nodeTable) insert(nodes []nodeData, off int, id Node) {
	if (t.count+1)*4 > len(t.slots)*3 {
		t.grow(nodes, off)
	}
	d := &nodes[int(id)-off]
	mask := uint64(len(t.slots) - 1)
	i := hashNode(d.level, d.lo, d.hi) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id
	t.count++
}

func (t *nodeTable) grow(nodes []nodeData, off int) {
	old := t.slots
	t.slots = make([]Node, len(old)*2)
	mask := uint64(len(t.slots) - 1)
	for _, id := range old {
		if id == 0 {
			continue
		}
		d := &nodes[int(id)-off]
		i := hashNode(d.level, d.lo, d.hi) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id
	}
}

// packOpKey packs an operation-cache key into one word: op kind in bits
// 0-1, operand a in bits 2-32, operand b in bits 33-63. Node IDs are
// non-negative int32s (31 bits), so the packing is exact and injective,
// and no valid key is 0 (op kinds start at 1).
func packOpKey(op opKind, a, b Node) uint64 {
	return uint64(op) | uint64(uint32(a))<<2 | uint64(uint32(b))<<33
}

// opEntry is one memoized operation; key 0 marks an empty slot.
type opEntry struct {
	key uint64
	val Node
}

// opCache is the operation cache: open-addressed, packed one-word keys,
// exact. It never evicts, so memoization is exactly as complete as a map
// keyed by (op, a, b) — node construction counts cannot drift with table
// size or hash order.
type opCache struct {
	entries []opEntry
	count   int
}

func newOpCache(entries int) opCache {
	return opCache{entries: make([]opEntry, pow2Slots(entries))}
}

func (c *opCache) lookup(k uint64) (Node, bool) {
	mask := uint64(len(c.entries) - 1)
	for i := hashMix(k) & mask; ; i = (i + 1) & mask {
		e := &c.entries[i]
		if e.key == k {
			return e.val, true
		}
		if e.key == 0 {
			return 0, false
		}
	}
}

// insert memoizes k → v. The caller guarantees k is absent (apply looks
// up first), so probing stops at the first empty slot; nothing is ever
// deleted, so probe chains stay intact.
func (c *opCache) insert(k uint64, v Node) {
	if (c.count+1)*4 > len(c.entries)*3 {
		c.grow()
	}
	mask := uint64(len(c.entries) - 1)
	i := hashMix(k) & mask
	for c.entries[i].key != 0 {
		i = (i + 1) & mask
	}
	c.entries[i] = opEntry{key: k, val: v}
	c.count++
}

func (c *opCache) grow() {
	old := c.entries
	c.entries = make([]opEntry, 2*len(old))
	c.count = 0
	for _, e := range old {
		if e.key != 0 {
			c.insert(e.key, e.val)
		}
	}
}
