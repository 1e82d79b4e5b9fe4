// Package tcam simulates a switch's ternary content-addressable memory:
// a fixed-capacity, priority-ordered table of access-control rules.
//
// The simulator reproduces the physical failure modes the paper lists in
// §II-B as sources of network-state inconsistency: insufficient space for
// new rules (overflow), local rule eviction unknown to the controller, and
// hardware corruption flipping bits in deployed rules.
//
// A table keeps no index over its keys: InstallAll and RemoveKeys look keys
// up with a map local to the call over its batch's keys, sized by the batch,
// or, for a batch of one key, by comparing each entry's key with it.
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

// TCAM is a fixed-capacity rule table, its rule list alone: InstallAll and
// RemoveKeys look keys up by walking the list, with a map sized by their
// batch when it holds more than one key. It is safe for concurrent use.
type TCAM struct {
	mu       sync.Mutex
	capacity int
	rules    []rule.Rule // match order: priority desc, then install order
	// shared is set when Rules has handed out rules since the last write
	// took its own copy; the next write copies it first (ownLocked).
	shared bool
}

// New creates a TCAM with the given capacity. Capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *TCAM {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &TCAM{capacity: capacity}
}

// Capacity returns the table capacity in entries.
func (t *TCAM) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *TCAM) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
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
// the batch reserved before its first write. The table takes each rule by
// value, sharing its provenance slice with the caller (see rule.Rule),
// which no table operation writes. It returns how many of them the table
// holds afterwards — installed now, or present already, the cases where
// Install returns nil; the remaining len(rules) minus that were refused
// for lack of space (ErrFull).
//
// The duplicate check is a set of the batch's keys local to the call, so it
// allocates in proportion to the batch. One pass over a non-empty table marks
// the keys it holds; into an empty one the set fills only as rules go in. A
// batch of one builds no set: its key is compared with each entry's.
func (t *TCAM) InstallAll(rules []rule.Rule) int {
	if len(rules) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	room := min(len(rules), t.capacity-len(t.rules))
	if room > 0 && !t.shared {
		t.rules = slices.Grow(t.rules, room)
	}
	var has map[rule.Key]bool // batch key: whether the table holds it; nil for a batch of one
	if len(rules) > 1 {
		has = make(map[rule.Key]bool, len(rules))
		if len(t.rules) > 0 {
			for i := range rules {
				has[rules[i].Key()] = false
			}
			for _, e := range t.rules {
				if _, ok := has[e.Key()]; ok {
					has[e.Key()] = true
				}
			}
		}
	}
	held := 0
	for i := range rules {
		r := &rules[i]
		k := r.Key()
		if has[k] || has == nil && t.indexLocked(k) >= 0 {
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
		t.ownLocked(room)
		t.rules = slices.Insert(t.rules, pos, *r)
		if has != nil {
			has[k] = true
		}
		held++
	}
	return held
}

// Remove deletes the first entry with the given key in match order. It
// reports whether an entry was removed.
func (t *TCAM) Remove(k rule.Key) bool { return t.RemoveKeys([]rule.Key{k}) > 0 }

// RemoveKeys deletes, for each key in order, the first entry with that
// key — exactly what calling Remove per key would do — and returns how
// many entries were removed: a key named m times loses its first m entries
// in match order, or all it has. The tally of names is local to the call,
// like InstallAll's set, and a call naming one key keeps none: it deletes
// the first entry whose key equals it. One compacting pass moves each
// survivor at most once and stops judging entries once every name is spent;
// a call that matches no entry copies nothing, and an empty one returns at
// once.
func (t *TCAM) RemoveKeys(keys []rule.Key) int {
	if len(keys) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(keys) == 1 {
		i := t.indexLocked(keys[0])
		if i < 0 {
			return 0
		}
		t.ownLocked(0)
		t.rules = slices.Delete(t.rules, i, i+1) // zeroes the vacated slot
		return 1
	}
	// names[k] is how many more entries of key k to drop; left is their sum.
	names := make(map[rule.Key]int, len(keys))
	for _, k := range keys {
		names[k]++
	}
	left := len(keys)
	victim := func(r rule.Rule) bool {
		if left == 0 || names[r.Key()] == 0 {
			return false
		}
		names[r.Key()]--
		left--
		return true
	}
	i := slices.IndexFunc(t.rules, victim)
	if i < 0 {
		return 0
	}
	t.ownLocked(0)
	n := len(t.rules)
	t.rules = append(t.rules[:i], slices.DeleteFunc(t.rules[i+1:], victim)...)
	clear(t.rules[len(t.rules):n])
	return n - len(t.rules)
}

// Rules returns a snapshot of the installed rules in match order: the
// table itself, marked shared and clipped to its length. Every call until
// the next write returns the same slice (same backing array), and the
// first write after a read copies the table before writing, so a held
// snapshot never changes. It is therefore shared and read-only — callers
// must not modify it. Its rules are values; each shares the provenance
// slice of the rule that was installed (see rule.Rule).
func (t *TCAM) Rules() []rule.Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared = true
	return slices.Clip(t.rules)
}

// Keys returns the set of installed rule keys.
func (t *TCAM) Keys() map[rule.Key]struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
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
		t.ownLocked(0)
		t.rules = slices.Delete(t.rules, idx, idx+1) // zeroes the vacated slot, keeping no provenance alive
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
		if t.rules[idx].IsDefaultDeny() {
			continue
		}
		t.ownLocked(0)
		r := &t.rules[idx]
		damaged = append(damaged, r.Key())
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
	}
	return damaged
}

// indexLocked returns the position of the first entry whose key is k, or -1.
func (t *TCAM) indexLocked(k rule.Key) int {
	return slices.IndexFunc(t.rules, func(e rule.Rule) bool { return e.Key() == k })
}

// ownLocked readies the table for a write: a table a read shared becomes
// a copy of its own, with room for extra more entries. The clone keeps the
// room its allocation rounds up to, so installs that follow one at a time
// fit; only a batch larger than that room grows it again.
func (t *TCAM) ownLocked(extra int) {
	if t.shared {
		t.rules, t.shared = slices.Grow(slices.Clone(t.rules), extra), false
	}
}
