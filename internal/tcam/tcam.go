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

// entryID identifies an installed entry independently of where it sits in
// the table: match order is priority descending, then install sequence
// ascending, so an ID locates its entry by binary search and survives
// every insertion and deletion around it.
type entryID struct {
	priority int
	seq      uint64
}

// before reports whether a precedes b in match order.
func (a entryID) before(b entryID) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// TCAM is a fixed-capacity rule table. It is safe for concurrent use.
type TCAM struct {
	mu       sync.RWMutex
	capacity int
	rules    []rule.Rule // match order: priority desc, then install sequence
	seqs     []uint64    // seqs[i] is the install sequence of rules[i]
	nextSeq  uint64
	// index maps each installed key to the ID of its first occurrence in
	// match order, so Install's duplicate check and Remove's lookup are
	// one map operation and a binary search, and a write never re-keys
	// the entries behind it; what stays O(n) per write is the memmove
	// that closes or opens the slot. Corruption can alias two entries
	// onto one key (len(index) < len(rules) exactly then); the index
	// tracks the earlier, higher-precedence occurrence.
	index map[rule.Key]entryID
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
	return &TCAM{capacity: capacity, index: make(map[rule.Key]entryID)}
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
		t.seqs = slices.Grow(t.seqs, room)
		if len(t.index) == 0 {
			t.index = make(map[rule.Key]entryID, room)
		}
	}
	held := 0
	for i := range rules {
		r := &rules[i]
		k := r.Key()
		if _, ok := t.index[k]; ok {
			held++
			continue
		}
		if len(t.rules) >= t.capacity {
			continue
		}
		// Match order is priority descending with programming order inside a
		// band, and a fresh install is the youngest entry of its band — so
		// its slot is the first index of strictly lower priority. Deploys
		// install in sorted order, which makes this an append.
		pos := len(t.rules)
		if pos > 0 && t.rules[pos-1].Priority < r.Priority {
			pos = sort.Search(pos, func(i int) bool {
				return t.rules[i].Priority < r.Priority
			})
		}
		t.nextSeq++
		t.rules = append(t.rules, rule.Rule{})
		copy(t.rules[pos+1:], t.rules[pos:])
		t.rules[pos] = *r
		t.seqs = append(t.seqs, 0)
		copy(t.seqs[pos+1:], t.seqs[pos:])
		t.seqs[pos] = t.nextSeq
		t.index[k] = entryID{r.Priority, t.nextSeq}
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
	return t.removeLocked(k)
}

func (t *TCAM) removeLocked(k rule.Key) bool {
	id, ok := t.index[k]
	if !ok {
		return false
	}
	t.deleteAtLocked(t.posLocked(id))
	return true
}

// RemoveKeys deletes, for each key in order, the first entry with that
// key — exactly what calling Remove per key would do — and returns how
// many entries were removed. The victims are marked through the index and
// the table is compacted once, so withdrawing k entries moves every
// survivor at most once instead of up to k times.
func (t *TCAM) RemoveKeys(keys []rule.Key) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.index) < len(t.rules) {
		// Corruption has aliased keys: removing one occurrence promotes
		// the next, which a later duplicate in keys must see.
		removed := 0
		for _, k := range keys {
			if t.removeLocked(k) {
				removed++
			}
		}
		return removed
	}
	victims := make([]int, 0, len(keys))
	for _, k := range keys {
		if id, ok := t.index[k]; ok {
			delete(t.index, k)
			victims = append(victims, t.posLocked(id))
		}
	}
	if len(victims) == 0 {
		return 0
	}
	sort.Ints(victims)
	w := victims[0]
	for v, pos := range victims {
		end := len(t.rules)
		if v+1 < len(victims) {
			end = victims[v+1]
		}
		copy(t.seqs[w:], t.seqs[pos+1:end])
		w += copy(t.rules[w:], t.rules[pos+1:end])
	}
	clear(t.rules[w:])
	t.rules, t.seqs = t.rules[:w], t.seqs[:w]
	t.snap = nil
	return len(victims)
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

// Packet is one classification query: the header tuple a rule's match
// covers.
type Packet struct {
	VRF   object.ID
	Src   object.ID
	Dst   object.ID
	Proto rule.Protocol
	Port  uint16
}

// Outcome is the result of classifying one packet of a batch: whether
// any rule matched it, and if so the first matching rule's action.
type Outcome struct {
	Action  rule.Action
	Matched bool
}

// ClassifyBatch resolves every packet of the batch in one priority-ordered
// pass over the rule table: rules on the outer loop, the still-unresolved
// packet set on the inner, so an n-entry table is scanned once per batch
// instead of once per packet and the read lock is taken once. The i-th
// outcome is the action of the first (highest-priority) rule matching the
// i-th packet.
func (t *TCAM) ClassifyBatch(pkts []Packet) []Outcome {
	out := make([]Outcome, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	// unresolved holds the indices of packets no rule has claimed yet,
	// compacted in place (order-preserving) as rules resolve them.
	unresolved := make([]int, len(pkts))
	for i := range unresolved {
		unresolved[i] = i
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for ri := range t.rules {
		r := &t.rules[ri]
		live := unresolved[:0]
		for _, i := range unresolved {
			p := pkts[i]
			if r.Match.Covers(p.VRF, p.Src, p.Dst, p.Proto, p.Port) {
				out[i] = Outcome{Action: r.Action, Matched: true}
			} else {
				live = append(live, i)
			}
		}
		unresolved = live
		if len(unresolved) == 0 {
			break
		}
	}
	return out
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
		t.rekeyLocked(idx, oldKey, r.Key())
		t.snap = nil
	}
	return damaged
}

// idLocked returns the ID of the entry at position i.
func (t *TCAM) idLocked(i int) entryID {
	return entryID{t.rules[i].Priority, t.seqs[i]}
}

// posLocked returns the position of the installed entry with the given ID.
func (t *TCAM) posLocked(id entryID) int {
	return sort.Search(len(t.rules), func(i int) bool {
		return !t.idLocked(i).before(id)
	})
}

// promoteLocked points the index at the first entry at or after from that
// carries key k, if one exists: the aliased duplicate that takes over when
// the occurrence the index tracked is deleted or re-keyed.
func (t *TCAM) promoteLocked(k rule.Key, from int) {
	for j := from; j < len(t.rules); j++ {
		if t.rules[j].Key() == k {
			t.index[k] = t.idLocked(j)
			return
		}
	}
}

// rekeyLocked repairs the key index after the entry at idx changed its
// key in place (corruption).
func (t *TCAM) rekeyLocked(idx int, oldKey, newKey rule.Key) {
	if oldKey == newKey {
		return
	}
	id := t.idLocked(idx)
	if t.index[oldKey] == id {
		aliased := len(t.index) < len(t.rules)
		delete(t.index, oldKey)
		if aliased {
			// Entries before idx cannot carry oldKey: the index tracked
			// idx as its first occurrence.
			t.promoteLocked(oldKey, idx+1)
		}
	}
	// The corrupted entry may now alias another entry's key; the index
	// keeps whichever occurs first in match order.
	if cur, ok := t.index[newKey]; !ok || id.before(cur) {
		t.index[newKey] = id
	}
}

func (t *TCAM) deleteAtLocked(i int) {
	k := t.rules[i].Key()
	first := t.index[k] == t.idLocked(i)
	if first {
		delete(t.index, k)
	}
	last := len(t.rules) - 1
	copy(t.rules[i:], t.rules[i+1:])
	copy(t.seqs[i:], t.seqs[i+1:])
	// Zero the vacated slot so the table does not keep the last rule's
	// provenance slice alive past len.
	t.rules[last] = rule.Rule{}
	t.rules, t.seqs = t.rules[:last], t.seqs[:last]
	t.snap = nil
	if first && len(t.index) < len(t.rules) {
		// A corruption-aliased duplicate of k may survive past i.
		t.promoteLocked(k, i)
	}
}
