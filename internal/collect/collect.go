// Package collect implements periodic and event-driven network-state
// collection (§III-C: "collecting the TCAM rules deployed across all
// switches periodically and/or in an event-driven fashion"). A Collector
// snapshots the fabric's TCAMs into immutable epochs, and DirtySwitches
// names the switches two epochs disagree on; a caller keeps the epochs it
// wants to compare. Events decide when to collect, not what: a TCAM hands
// back its own list, which its first write after a read copies before
// writing, so a collection copies nothing, and an unwritten switch
// contributes the previous epoch's very slice. Only bench/ collects
// epochs — a Session reads its fabric itself — so the package goes with
// ROADMAP item 13(b).
package collect

import (
	"sort"
	"sync"
	"time"

	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/rule"
)

// Epoch is one immutable collection of every switch's TCAM contents. Its
// rule slices are the TCAMs' own lists, shared and read-only
// (tcam.TCAM.Rules): a switch not written between two collections
// contributes the same slice to both epochs, which is what lets
// DirtySwitches pass over it without reading a rule. Nobody may modify them.
type Epoch struct {
	Seq  int                       `json:"seq"`
	Time time.Time                 `json:"time"`
	TCAM map[object.ID][]rule.Rule `json:"tcam"`
}

// RuleCount returns the total rules across switches in the epoch. Only
// bench/ reads it.
func (e *Epoch) RuleCount() int {
	n := 0
	for _, rules := range e.TCAM {
		n += len(rules)
	}
	return n
}

// Collector snapshots a fabric into numbered epochs. It keeps no epoch:
// the fabric's TCAMs keep what a collection shares with the last. It is
// safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	f       *fabric.Fabric
	nextSeq int
}

// New creates a collector over f. The limit argument is ignored: a
// collector keeps no history. Only bench/ creates one.
func New(f *fabric.Fabric, _ int) *Collector {
	return &Collector{f: f}
}

// Snapshot collects every switch's TCAM into a new epoch. It copies no
// table: a switch's next write copies its list instead.
func (c *Collector) Snapshot() *Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSeq++
	return &Epoch{Seq: c.nextSeq, Time: c.f.Now(), TCAM: c.f.CollectAll()}
}

// Deprecated: SnapshotSwitches is Snapshot and ignores its names — a
// full collection copies no table, and it also sees writes no name covers. It stays until bench/ stops
// calling it (ROADMAP item 1, shims).
func (c *Collector) SnapshotSwitches([]object.ID) (*Epoch, error) {
	return c.Snapshot(), nil
}

// DirtySwitches returns the IDs of switches whose TCAM rule lists differ
// between the two epochs, sorted ascending; switches present in only one
// epoch count as dirty. Rule lists are compared elementwise
// (order-sensitively, the same sensitivity the equivalence checker has, so
// a clean verdict is always safe to act on) with early exit at the first
// difference, and a switch holding the same slice in both epochs is clean
// without a comparison — O(switches) on a clean epoch. A session needs no
// dirty set — it recognises an unwritten switch's slice by itself.
func DirtySwitches(older, newer *Epoch) []object.ID {
	var out []object.ID
	for sw, rules := range older.TCAM {
		newRules, ok := newer.TCAM[sw]
		if !ok || !rule.SlicesEqual(rules, newRules) {
			out = append(out, sw)
		}
	}
	for sw := range newer.TCAM {
		if _, ok := older.TCAM[sw]; !ok {
			out = append(out, sw)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
