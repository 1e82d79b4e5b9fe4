// Package tcam simulates a switch's ternary content-addressable memory:
// a fixed-capacity, priority-ordered table of access-control rules.
//
// The simulator reproduces the physical failure modes the paper lists in
// §II-B as sources of network-state inconsistency: insufficient space for
// new rules (overflow), local rule eviction unknown to the controller, and
// hardware corruption flipping bits in deployed rules.
package tcam

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"scout/internal/object"
	"scout/internal/rule"
)

// ErrFull is returned by Install when the TCAM has no free entries.
var ErrFull = errors.New("tcam: table full")

// DefaultCapacity is the default number of TCAM entries, loosely modeled
// on ACL TCAM bank sizes of datacenter leaf switches.
const DefaultCapacity = 4096

// TCAM is a fixed-capacity rule table. It is safe for concurrent use.
type TCAM struct {
	mu       sync.RWMutex
	capacity int
	rules    []rule.Rule // match order: priority desc, then install order
	// count is the number of entries carrying each key, so Install's
	// duplicate check is one map lookup. Corruption can alias two entries
	// onto one key, the only way a count exceeds 1; no key counts 0.
	count map[rule.Key]int
	// snap is the published read-only list Rules hands out, built on the
	// first read after a write and dropped by the next write.
	snap []rule.Rule
}

// New creates a TCAM with the given capacity. Capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *TCAM {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &TCAM{capacity: capacity, count: make(map[rule.Key]int)}
}

// Capacity returns the table capacity in entries.
func (t *TCAM) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *TCAM) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rules)
}

// Install adds a rule to the table. Installing a rule whose Key already
// exists is idempotent. Returns ErrFull when the table is at capacity.
func (t *TCAM) Install(r rule.Rule) error {
	if t.InstallAll([]rule.Rule{r}) == 0 {
		return fmt.Errorf("install %s: %w", r, ErrFull)
	}
	return nil
}

// InstallAll installs the rules in order, leaving the table exactly as
// calling Install on each in turn would, under one lock and with room for
// the batch reserved up front. The table takes each rule by value, sharing
// its provenance slice with the caller (see rule.Rule), which no table
// operation writes. It returns how many of them the table holds afterwards
// — installed now, or present already, the cases where Install returns nil;
// the remaining len(rules) minus that were refused for lack of space
// (ErrFull).
func (t *TCAM) InstallAll(rules []rule.Rule) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	room := min(len(rules), t.capacity-len(t.rules))
	if room > 0 {
		t.rules = slices.Grow(t.rules, room)
		if len(t.count) == 0 {
			t.count = make(map[rule.Key]int, room)
		}
	}
	held := 0
	for i := range rules {
		r := &rules[i]
		k := r.Key()
		if t.count[k] > 0 {
			held++
			continue
		}
		if len(t.rules) >= t.capacity {
			continue
		}
		// Match order is priority descending with programming order inside a
		// band, and a fresh install is the youngest entry of its band — so
		// its slot is the first position of strictly lower priority. Deploys
		// install in sorted order, which makes this an append.
		pos := len(t.rules)
		if pos > 0 && t.rules[pos-1].Priority < r.Priority {
			pos = sort.Search(pos, func(i int) bool {
				return t.rules[i].Priority < r.Priority
			})
		}
		t.rules = slices.Insert(t.rules, pos, *r)
		t.count[k]++
		t.snap = nil
		held++
	}
	return held
}

// Remove deletes the first entry with the given key in match order. It
// reports whether an entry was removed.
func (t *TCAM) Remove(k rule.Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count[k] == 0 {
		return false
	}
	t.deleteAtLocked(slices.IndexFunc(t.rules, func(r rule.Rule) bool { return r.Key() == k }))
	return true
}

// RemoveKeys deletes, for each key in order, the first entry with that
// key — exactly what calling Remove per key would do — and returns how
// many entries were removed. A key named m times thus loses its first
// min(m, count) entries in match order, and the table is compacted in one
// pass that stops judging entries once every victim is gone, so
// withdrawing k entries moves every survivor at most once.
func (t *TCAM) RemoveKeys(keys []rule.Key) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	drop := make(map[rule.Key]int)
	victims := 0
	for _, k := range keys {
		if drop[k] < t.count[k] {
			drop[k]++
			victims++
		}
	}
	if victims == 0 {
		return 0
	}
	left := victims
	t.rules = slices.DeleteFunc(t.rules, func(r rule.Rule) bool {
		if left == 0 {
			return false
		}
		k := r.Key()
		if drop[k] == 0 {
			return false
		}
		drop[k]--
		left--
		t.uncountLocked(k)
		return true
	})
	t.snap = nil
	return victims
}

// Rules returns a snapshot of the installed rules in match order. The
// snapshot is a list of its own, distinct from table storage (which writes
// shift and corruption edits in place), built once per table generation:
// every call until the next write returns the same slice (same backing
// array), and a write publishes a fresh one instead of touching it. It is
// therefore shared and read-only — callers must not modify it — and a held
// snapshot never changes. Its rules are values; each shares the provenance
// slice of the rule that was installed (see rule.Rule).
func (t *TCAM) Rules() []rule.Rule {
	t.mu.RLock()
	snap := t.snap
	t.mu.RUnlock()
	if snap != nil {
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap == nil {
		t.snap = slices.Clone(t.rules)
	}
	return t.snap
}

// Keys returns the set of installed rule keys.
func (t *TCAM) Keys() map[rule.Key]struct{} {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return rule.KeySet(t.rules)
}

// EvictRandom removes up to n random entries (a local eviction mechanism
// the controller is unaware of, §II-B). It returns the evicted rules.
func (t *TCAM) EvictRandom(n int, rng *rand.Rand) []rule.Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evicted []rule.Rule
	for i := 0; i < n && len(t.rules) > 0; i++ {
		idx := rng.Intn(len(t.rules))
		evicted = append(evicted, t.rules[idx])
		t.deleteAtLocked(idx)
	}
	return evicted
}

// CorruptionField selects which match field a corruption event flips.
type CorruptionField int

// Fields that TCAM corruption can damage.
const (
	CorruptVRF CorruptionField = iota + 1
	CorruptSrcEPG
	CorruptDstEPG
	CorruptPort
)

// Corrupt flips a bit in the selected field of up to n random entries,
// simulating TCAM bit errors (§II-B, [14]). The rules remain installed but
// no longer enforce the intended behaviour — their keys change, so the
// intended rules appear missing to the equivalence checker. It returns the
// keys of the rules that were corrupted (their pre-corruption identities).
func (t *TCAM) Corrupt(n int, field CorruptionField, rng *rand.Rand) []rule.Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	var damaged []rule.Key
	for i := 0; i < n && len(t.rules) > 0; i++ {
		idx := rng.Intn(len(t.rules))
		r := &t.rules[idx]
		if r.IsDefaultDeny() {
			continue
		}
		oldKey := r.Key()
		damaged = append(damaged, oldKey)
		bit := uint32(1) << uint(rng.Intn(16))
		switch field {
		case CorruptVRF:
			r.Match.VRF ^= object.ID(bit)
		case CorruptSrcEPG:
			r.Match.SrcEPG ^= object.ID(bit)
		case CorruptDstEPG:
			r.Match.DstEPG ^= object.ID(bit)
		case CorruptPort:
			r.Match.PortLo ^= uint16(bit)
			if r.Match.PortLo > r.Match.PortHi {
				r.Match.PortLo, r.Match.PortHi = r.Match.PortHi, r.Match.PortLo
			}
		}
		if k := r.Key(); k != oldKey {
			t.uncountLocked(oldKey)
			t.count[k]++
		}
		t.snap = nil
	}
	return damaged
}

// uncountLocked takes one entry of key k off its count.
func (t *TCAM) uncountLocked(k rule.Key) {
	if t.count[k] == 1 {
		delete(t.count, k)
	} else {
		t.count[k]--
	}
}

// deleteAtLocked deletes the entry at position i. slices.Delete zeroes the
// vacated slot (as DeleteFunc does in RemoveKeys), so the table does not
// keep the last rule's provenance slice alive past len.
func (t *TCAM) deleteAtLocked(i int) {
	t.uncountLocked(t.rules[i].Key())
	t.rules = slices.Delete(t.rules, i, i+1)
	t.snap = nil
}
