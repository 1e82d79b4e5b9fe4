package bdd

// Node maps an old node ID to its post-compaction ID, or NoNode if the
// node was dropped. Only the tests read a compaction's mapping: no caller
// outside bench/ compacts around a root it still names.
func (r *Remap) Node(n Node) Node {
	if int(n) < r.pin {
		return n
	}
	return r.delta[int(n)-r.pin]
}
