// Package collect implements periodic and event-driven network-state
// collection (§III-C: "collecting the TCAM rules deployed across all
// switches periodically and/or in an event-driven fashion"). A Collector
// snapshots the fabric's TCAMs into immutable epochs, keeps a bounded
// history, and can diff epochs to show which rules appeared or vanished
// between collections — the raw material for trend analysis and
// post-incident forensics. It also collects *partial* epochs: only the
// switches the caller names (from the events it drained) are re-read,
// everything else aliases the previous epoch's rule slices, so a
// collection round costs O(dirty switches) instead of O(fabric).
package collect

import (
	"fmt"
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

// Collector snapshots a fabric and retains a bounded epoch history. It is
// safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	f       *fabric.Fabric
	history []*Epoch
	limit   int
	nextSeq int
}

// New creates a collector keeping at most limit epochs (<= 0 keeps 16).
func New(f *fabric.Fabric, limit int) *Collector {
	if limit <= 0 {
		limit = 16
	}
	return &Collector{f: f, limit: limit}
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

// retainLocked stamps a collected TCAM map as the next epoch and retains
// it in the bounded history.
func (c *Collector) retainLocked(tcams map[object.ID][]rule.Rule) *Epoch {
	c.nextSeq++
	e := &Epoch{
		Seq:  c.nextSeq,
		Time: c.f.Now(),
		TCAM: tcams,
	}
	c.history = append(c.history, e)
	if len(c.history) > c.limit {
		c.history = c.history[len(c.history)-c.limit:]
	}
	return e
}

// SnapshotSwitches collects a partial epoch: only the named switches are
// re-read from the fabric; every other switch's rule slice aliases the
// previous epoch's (same backing array, zero copy), so the epoch is a
// complete fabric view at the cost of the dirty subset. DirtySwitches
// and Diff semantics are intact — an aliased slice compares equal to its
// predecessor, a re-read one compares by content. Without a previous
// epoch the call degrades to a full Snapshot (there is nothing to alias).
//
// Correctness rests on the event contract: a switch not named since the
// previous epoch has an unchanged TCAM. Callers that cannot trust the
// stream end to end should interleave periodic full Snapshots.
func (c *Collector) SnapshotSwitches(dirty []object.ID) (*Epoch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return c.snapshotLocked(), nil
	}
	tcams, _, err := Partial(c.f, c.history[len(c.history)-1].TCAM, dirty)
	if err != nil {
		return nil, err
	}
	return c.retainLocked(tcams), nil
}

// Partial is the partial collection, written once for the Collector and for
// an analysis session's event refresh: prev's rule lists with the named
// switches re-read from the fabric. Every other switch aliases prev's
// slice. A switch named twice is read once, and one prev lacked simply
// joins (dirty by definition for a diff). reread is the set actually read,
// so the call carried len(tcams)-len(reread) switches forward untouched.
func Partial(f *fabric.Fabric, prev map[object.ID][]rule.Rule, named []object.ID) (tcams map[object.ID][]rule.Rule, reread map[object.ID]bool, err error) {
	tcams = make(map[object.ID][]rule.Rule, len(prev))
	for sw, rules := range prev {
		tcams[sw] = rules
	}
	reread = make(map[object.ID]bool, len(named))
	for _, sw := range named {
		if reread[sw] {
			continue
		}
		rules, err := f.CollectTCAM(sw)
		if err != nil {
			return nil, nil, fmt.Errorf("collect: partial collection: %w", err)
		}
		tcams[sw] = rules
		reread[sw] = true
	}
	return tcams, reread, nil
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
