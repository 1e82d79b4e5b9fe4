// Package collect implements periodic and event-driven network-state
// collection (§III-C: "collecting the TCAM rules deployed across all
// switches periodically and/or in an event-driven fashion"). A Collector
// snapshots the fabric's TCAMs into immutable epochs, keeps the latest one
// for a partial collection to build on, and can diff epochs to show which
// rules appeared or vanished between collections — the raw material for
// trend analysis and post-incident forensics; a caller keeps the epochs it
// wants to compare. Events decide when to collect, not what: a TCAM
// hands back the snapshot it last published until it is written, so a full
// collection copies only the written switches, and an unwritten switch
// contributes the previous epoch's very slice.
package collect

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/rule"
)

// Epoch is one immutable collection of every switch's TCAM contents. Its
// rule slices are the TCAMs' shared read-only snapshots (tcam.TCAM.Rules):
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

// Collector snapshots a fabric and keeps its latest epoch, which
// SnapshotSwitches builds on; an older epoch would only pin the superseded
// snapshots of the switches written since. It is safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	f       *fabric.Fabric
	last    *Epoch
	nextSeq int
}

// New creates a collector over f. The limit argument is ignored: a
// collector keeps no history. It stays until bench/ stops passing it
// (ROADMAP item 1, shims).
func New(f *fabric.Fabric, _ int) *Collector {
	return &Collector{f: f}
}

// Snapshot collects every switch's TCAM into a new epoch. Only switches
// written since their last read cost a copy; the rest hand back the
// snapshot they already published.
func (c *Collector) Snapshot() *Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collector) snapshotLocked() *Epoch {
	return c.retainLocked(c.f.CollectAll())
}

// retainLocked stamps a collected TCAM map as the next epoch and keeps it
// as the latest.
func (c *Collector) retainLocked(tcams map[object.ID][]rule.Rule) *Epoch {
	c.nextSeq++
	c.last = &Epoch{
		Seq:  c.nextSeq,
		Time: c.f.Now(),
		TCAM: tcams,
	}
	return c.last
}

// SnapshotSwitches collects a partial epoch: only the named switches are
// re-read from the fabric; every other switch's rule slice aliases the
// previous epoch's (same backing array, zero copy), and a named switch the
// previous epoch lacked simply joins. DirtySwitches
// and Diff semantics are intact — an aliased slice compares equal to its
// predecessor, a re-read one compares by content. Without a previous
// epoch the call degrades to a full Snapshot (there is nothing to alias).
// A write to a switch the caller does not name is missed until the next
// full Snapshot, which costs no more.
func (c *Collector) SnapshotSwitches(dirty []object.ID) (*Epoch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		return c.snapshotLocked(), nil
	}
	tcams := maps.Clone(c.last.TCAM)
	for _, sw := range dirty {
		rules, err := c.f.CollectTCAM(sw)
		if err != nil {
			return nil, fmt.Errorf("collect: partial collection: %w", err)
		}
		tcams[sw] = rules
	}
	return c.retainLocked(tcams), nil
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
			continue // aliased or re-read with no write between: no delta
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
