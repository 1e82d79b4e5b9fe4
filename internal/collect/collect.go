// Package collect implements periodic and event-driven network-state
// collection (§III-C: "collecting the TCAM rules deployed across all
// switches periodically and/or in an event-driven fashion"). A Collector
// snapshots the fabric's TCAMs into immutable epochs and can diff epochs
// to show which rules appeared or vanished between collections — the raw
// material for trend analysis and post-incident forensics; a caller keeps
// the epochs it wants to compare. Events decide when to collect, not
// what: a TCAM hands back its own list, which its first write after a
// read copies before writing, so a collection copies nothing, and an
// unwritten switch contributes the previous epoch's very slice.
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
// (tcam.TCAM.Rules):
// a switch not written between two collections contributes the same slice
// to both epochs, which is what lets DirtySwitches and Diff pass over it
// without reading a rule. Nobody may modify them.
type Epoch struct {
	Seq  int                       `json:"seq"`
	Time time.Time                 `json:"time"`
	TCAM map[object.ID][]rule.Rule `json:"tcam"`
}

// RuleCount returns the total rules across switches in the epoch.
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
// collector keeps no history. It stays until bench/ stops passing it
// (ROADMAP item 1, shims).
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

// SwitchDelta is the per-switch difference between two epochs.
type SwitchDelta struct {
	Switch  object.ID
	Added   []rule.Rule // present in the newer epoch only
	Removed []rule.Rule // present in the older epoch only
}

// DirtySwitches returns the IDs of switches whose TCAM rule lists differ
// between the two epochs, sorted ascending; switches present in only one
// epoch count as dirty. Unlike Diff it never materializes per-rule deltas:
// rule lists are compared elementwise (order-sensitively, the same
// sensitivity the equivalence checker has, so a clean verdict is always
// safe to act on) with early exit at the first difference, and a switch
// holding the same slice in both epochs is clean without a comparison —
// O(switches) on a clean epoch, cheap enough to run on every collection.
// An analysis session does not need it — it recognises an unwritten
// switch's slice by itself — so it serves callers who want the dirty set.
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

// Diff compares two epochs and returns the per-switch rule deltas, sorted
// by switch; switches with no change are omitted.
func Diff(older, newer *Epoch) []SwitchDelta {
	switches := make(map[object.ID]struct{})
	for sw := range older.TCAM {
		switches[sw] = struct{}{}
	}
	for sw := range newer.TCAM {
		switches[sw] = struct{}{}
	}
	var out []SwitchDelta
	for sw := range switches {
		if rule.SameSlice(older.TCAM[sw], newer.TCAM[sw]) {
			continue // one snapshot, no write between: no delta
		}
		oldKeys := rule.KeySet(older.TCAM[sw])
		newKeys := rule.KeySet(newer.TCAM[sw])
		var delta SwitchDelta
		delta.Switch = sw
		for _, r := range newer.TCAM[sw] {
			if _, ok := oldKeys[r.Key()]; !ok {
				delta.Added = append(delta.Added, r)
			}
		}
		for _, r := range older.TCAM[sw] {
			if _, ok := newKeys[r.Key()]; !ok {
				delta.Removed = append(delta.Removed, r)
			}
		}
		if len(delta.Added)+len(delta.Removed) > 0 {
			rule.Sort(delta.Added)
			rule.Sort(delta.Removed)
			out = append(out, delta)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Switch < out[j].Switch })
	return out
}
