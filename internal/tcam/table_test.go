package tcam

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// The table runner: one operation stream, read from an oracle.Choices,
// applied to a TCAM and to refTable, a plain slice in match order. After
// every step the table must hold the reference's rules and have returned
// what it returned, its entries must be in priority order with no rule
// alive in the slack behind them (checkOrderAndSlack), the snapshot Rules
// hands out must be republished exactly when the step changed the table
// and never change once handed out, and no rule a caller lent the table
// may have changed. Concurrent snapshot readers are an option of the
// same run, and so is holding the first read after every step to no
// allocation. The key space is small so that corruption aliases keys, an
// entry directly behind another of its key included.

// op is one step of a run.
type op int

const (
	opInstallAll op = iota
	opInstall
	opRemove
	opRemoveKeys
	opEvict
	opCorrupt
	opRules
	opEmpty
)

var opNames = [...]string{"InstallAll", "Install", "Remove", "RemoveKeys", "EvictRandom", "Corrupt", "Rules", "empty batch"}

// allOps is every step.
var allOps = []op{opInstallAll, opInstall, opRemove, opRemoveKeys, opEvict, opCorrupt, opRules, opEmpty}

// tableCase is one run's shape: the capacity handed to New, and steps
// each drawn uniformly from ops. readers goroutines take snapshots and
// read every entry of each while the run goes on. freeReads holds the
// first Rules call after every step, and an empty batch, to zero mallocs;
// it applies only with no readers, whose own allocations the count would
// take in.
type tableCase struct {
	capacity, steps int
	ops             []op
	readers         int
	freeReads       bool
}

// refTable is the reference: the rules in match order. Evict and corrupt
// read the draws the TCAM read (see draws).
type refTable struct {
	capacity int
	rules    []rule.Rule
	writes   int
	stats    *tableStats
}

func (r *refTable) index(k rule.Key) int {
	return slices.IndexFunc(r.rules, func(x rule.Rule) bool { return x.Key() == k })
}

// install returns how many of rules the table holds afterwards: a fresh
// rule goes behind every entry of its priority or higher.
func (r *refTable) install(rules ...rule.Rule) int {
	held := 0
	for _, x := range rules {
		switch {
		case r.index(x.Key()) >= 0:
			held++
		case len(r.rules) >= r.capacity:
			r.stats.overflowed++
		default:
			i := slices.IndexFunc(r.rules, func(y rule.Rule) bool { return y.Priority < x.Priority })
			if i < 0 {
				i = len(r.rules)
			}
			r.rules = slices.Insert(r.rules, i, x)
			r.writes, held = r.writes+1, held+1
		}
	}
	return held
}

func (r *refTable) deleteAt(i int) rule.Rule {
	x := r.rules[i]
	if r.index(x.Key()) == i && i+1 < len(r.rules) && r.rules[i+1].Key() == x.Key() {
		r.stats.adjacent++
	}
	r.rules = slices.Delete(r.rules, i, i+1)
	r.writes++
	return x
}

// remove deletes the first occurrence of each key in turn and returns how
// many it found.
func (r *refTable) remove(keys ...rule.Key) int {
	removed := 0
	for _, k := range keys {
		if len(rule.KeySet(r.rules)) < len(r.rules) {
			r.stats.aliased++
		}
		if i := r.index(k); i >= 0 {
			r.deleteAt(i)
			removed++
		}
	}
	return removed
}

func (r *refTable) evict(n int, rng *rand.Rand) []rule.Rule {
	var out []rule.Rule
	for ; n > 0 && len(r.rules) > 0; n-- {
		out = append(out, r.deleteAt(rng.Intn(len(r.rules))))
	}
	return out
}

// corrupt flips one random bit of field in up to n random entries, the
// default deny aside, keeping a port range low to high.
func (r *refTable) corrupt(n int, field CorruptionField, rng *rand.Rand) []rule.Key {
	var out []rule.Key
	for ; n > 0 && len(r.rules) > 0; n-- {
		x := &r.rules[rng.Intn(len(r.rules))]
		if x.IsDefaultDeny() {
			r.stats.denied++
			continue
		}
		out = append(out, x.Key())
		bit := uint32(1) << rng.Intn(16)
		m := &x.Match
		switch field {
		case CorruptVRF:
			m.VRF ^= object.ID(bit)
		case CorruptSrcEPG:
			m.SrcEPG ^= object.ID(bit)
		case CorruptDstEPG:
			m.DstEPG ^= object.ID(bit)
		case CorruptPort:
			m.PortLo ^= uint16(bit)
			m.PortLo, m.PortHi = min(m.PortLo, m.PortHi), max(m.PortLo, m.PortHi)
		}
		r.writes++
	}
	return out
}

// draws is the random stream EvictRandom and Corrupt read: the TCAM and
// the reference each read it through a source of their own, and whichever
// reads a value first takes it from the run's choices, small values more
// often, so that a corruption often flips a field's low bit.
type draws struct {
	c    *oracle.Choices
	vals []int64
}

type source struct {
	d  *draws
	at int
}

func (s *source) Int63() int64 {
	if s.at == len(s.d.vals) {
		s.d.vals = append(s.d.vals, int64(s.d.c.Byte()>>s.d.c.Intn(8))<<32)
	}
	s.at++
	return s.d.vals[s.at-1]
}

func (s *source) Seed(int64) {}

// tableStats is what a run exercised.
type tableStats struct {
	overflowed int // rules the full table refused
	aliased    int // removals from a table holding some key twice
	adjacent   int // deletions of a key's first entry with another entry of that key right behind it
	repeated   int // RemoveKeys calls naming a key twice or more while the table holds two entries of it or more
	denied     int // corruptions that drew the default deny
}

type harness struct {
	t         *testing.T
	c         *oracle.Choices
	tc        *TCAM
	ref       refTable
	rng, twin *rand.Rand
	nextID    int
	freeReads bool
	// snap is the snapshot read after the last step and frozen its copy;
	// lent is every rule list handed to the table and copies their copies.
	snap, frozen []rule.Rule
	lent, copies [][]rule.Rule
	// states is the table after every write, for the readers.
	states [][]rule.Rule
	stats  *tableStats
}

// runTable drives one case from c, counting into stats what it exercised.
func runTable(t *testing.T, c *oracle.Choices, cs tableCase, stats *tableStats) {
	t.Helper()
	d := &draws{c: c}
	h := &harness{t: t, c: c, tc: New(cs.capacity), ref: refTable{capacity: cs.capacity, stats: stats},
		rng: rand.New(&source{d: d}), twin: rand.New(&source{d: d}), freeReads: cs.freeReads && cs.readers == 0,
		states: [][]rule.Rule{nil}, stats: stats}
	if h.ref.capacity <= 0 {
		h.ref.capacity = DefaultCapacity
	}
	if h.freeReads {
		// One P, as testing.AllocsPerRun pins: an allocation made on
		// another P before the call can be counted during it.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if h.tc.Capacity() != h.ref.capacity || h.tc.Len() != 0 {
		t.Fatalf("New(%d): capacity %d, %d entries", cs.capacity, h.tc.Capacity(), h.tc.Len())
	}
	// A reader copies each snapshot it takes first and, while Rules keeps
	// handing it out, compares every entry of it with the copy.
	seen := make([][][]rule.Rule, cs.readers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []rule.Rule
			for !stop.Load() {
				snap := h.tc.Rules()
				if n := len(seen[g]); n == 0 || !rule.SameSlice(snap, held) {
					held, seen[g] = snap, append(seen[g], oracle.CloneRules(snap))
				} else if !rule.SlicesEqual(snap, seen[g][n-1]) {
					t.Errorf("reader %d: a snapshot changed while Rules handed it out", g)
					return
				}
			}
		}()
	}
	halt := sync.OnceFunc(func() { stop.Store(true); wg.Wait() })
	defer halt()
	for i := 0; i < cs.steps; i++ {
		h.step(i, cs.ops[c.Intn(len(cs.ops))])
	}
	halt()
	// Every snapshot a reader took is the table as some write left it, in
	// the order the writes came.
	for g, snaps := range seen {
		at := 0
		for _, snap := range snaps {
			for at < len(h.states) && !rule.SlicesEqual(snap, h.states[at]) {
				at++
			}
			if at == len(h.states) {
				t.Fatalf("reader %d took a snapshot no write left, or out of order: %v", g, snap)
			}
		}
	}
}

// draw returns a rule of the small key space — VRF and EPGs 0 or 1, ports
// [0,0] or [0,1], one in four a deny — or one time in 32 the default deny.
// Flipping the low bit of a VRF or an EPG maps one key onto another.
func (h *harness) draw() rule.Rule {
	c := h.c
	if c.Chance(32) {
		return rule.DefaultDeny()
	}
	h.nextID++
	r := rule.Rule{
		Match: rule.Match{VRF: object.ID(c.Intn(2)), SrcEPG: object.ID(c.Intn(2)), DstEPG: object.ID(c.Intn(2)),
			Proto: rule.ProtoTCP, PortHi: uint16(c.Intn(2))},
		Action: rule.Allow, Priority: 10 * c.Intn(3), Provenance: []object.Ref{object.Filter(object.ID(h.nextID))},
	}
	if c.Chance(4) {
		r.Action = rule.Deny
	}
	return r
}

// key returns an installed rule's key, one time in eight a drawn one's.
func (h *harness) key() rule.Key {
	if len(h.ref.rules) == 0 || h.c.Chance(8) {
		return h.draw().Key()
	}
	return h.ref.rules[h.c.Intn(len(h.ref.rules))].Key()
}

func (h *harness) lend(rules []rule.Rule) {
	h.lent, h.copies = append(h.lent, rules), append(h.copies, oracle.CloneRules(rules))
}

func (h *harness) step(i int, kind op) {
	t, c, tc, ref := h.t, h.c, h.tc, &h.ref
	t.Helper()
	label := fmt.Sprintf("step %d (%s)", i, opNames[kind])
	writes := ref.writes
	var got, want any
	switch kind {
	case opInstallAll:
		batch := make([]rule.Rule, c.Intn(12))
		for j := range batch {
			batch[j] = h.draw()
		}
		if c.Chance(2) {
			// Sorted as a deploy installs them: neighbours then differ in
			// one low bit, so a corruption aliases an entry next to its own.
			rule.Sort(batch)
		}
		h.lend(batch)
		got, want = tc.InstallAll(batch), ref.install(batch...)
	case opInstall:
		r := h.draw()
		h.lend([]rule.Rule{r})
		err := tc.Install(r)
		if err != nil && !errors.Is(err, ErrFull) {
			t.Fatalf("%s: %v", label, err)
		}
		got, want = err == nil, ref.install(r) == 1
	case opRemove:
		k := h.key()
		got, want = tc.Remove(k), ref.remove(k) == 1
	case opRemoveKeys:
		var keys []rule.Key
		if c.Chance(4) {
			for _, r := range ref.rules {
				keys = append(keys, r.Key())
			}
		}
		for n := c.Intn(5); n > 0; n-- {
			keys = append(keys, h.key()) // may repeat
		}
		if repeatsAliased(keys, ref.rules) {
			h.stats.repeated++
		}
		got, want = tc.RemoveKeys(keys), ref.remove(keys...)
	case opEvict:
		n := c.Intn(4)
		got, want = tc.EvictRandom(n, h.rng), ref.evict(n, h.twin)
	case opCorrupt:
		n, field := 1+c.Intn(3), CorruptionField(1+c.Intn(4))
		got, want = tc.Corrupt(n, field, h.rng), ref.corrupt(n, field, h.twin)
	case opEmpty:
		// An empty batch returns at once: it removes and installs nothing,
		// allocates nothing and leaves the snapshot shared (check).
		var n int
		if allocs := h.mallocs(func() { n = tc.InstallAll(nil) + tc.RemoveKeys([]rule.Key{}) }); allocs > 0 {
			t.Fatalf("%s made %d allocations", label, allocs)
		}
		got, want = n, 0
	case opRules:
		snap := tc.Rules()
		got, want = rule.SameSlice(snap, tc.Rules()), true
		if keys := tc.Keys(); !maps.Equal(keys, rule.KeySet(snap)) {
			t.Fatalf("%s: Keys() = %v, the snapshot's are %v", label, keys, rule.KeySet(snap))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s returned %v, the reference %v", label, got, want)
	}
	h.check(label, ref.writes != writes)
}

// repeatsAliased reports whether keys names some key at least twice while
// rules hold at least two entries of it: the case where RemoveKeys must
// drop that key's first entries, as many as named, in match order.
func repeatsAliased(keys []rule.Key, rules []rule.Rule) bool {
	named := make(map[rule.Key]int)
	for _, k := range keys {
		named[k]++
	}
	held := make(map[rule.Key]int)
	for _, r := range rules {
		held[r.Key()]++
	}
	for k, m := range named {
		if m >= 2 && held[k] >= 2 {
			return true
		}
	}
	return false
}

// check holds the table to the reference after a step that changed it, or
// not, and keeps the snapshot the step leaves.
func (h *harness) check(label string, changed bool) {
	t := h.t
	t.Helper()
	snap := h.firstRead(label)
	if !rule.SlicesEqual(snap, h.ref.rules) || h.tc.Len() != len(h.ref.rules) {
		t.Fatalf("%s: the table holds %v, the reference %v", label, snap, h.ref.rules)
	}
	if err := checkOrderAndSlack(h.tc); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if changed == rule.SameSlice(h.snap, snap) {
		t.Fatalf("%s changed the table (%v) but republished its snapshot (%v), or the other way round", label, changed, !changed)
	}
	if !rule.SlicesEqual(h.snap, h.frozen) {
		t.Fatalf("%s changed a snapshot a reader holds", label)
	}
	for j := range h.lent {
		if !rule.SlicesEqual(h.lent[j], h.copies[j]) {
			t.Fatalf("%s changed a rule a caller lent the table", label)
		}
	}
	if changed {
		h.snap, h.frozen = snap, oracle.CloneRules(snap)
		h.states = append(h.states, h.frozen)
	}
}

// firstRead returns the snapshot Rules hands out after a step, holding
// the call to no allocation when the case asks for it.
func (h *harness) firstRead(label string) []rule.Rule {
	var snap []rule.Rule
	if n := h.mallocs(func() { snap = h.tc.Rules() }); n > 0 {
		h.t.Fatalf("%s: the first Rules call after it made %d allocations", label, n)
	}
	return snap
}

// mallocs calls fn and returns how many allocations it made, when the case
// counts them (freeReads), and 0 otherwise.
func (h *harness) mallocs(fn func()) uint64 {
	if !h.freeReads {
		fn()
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// checkOrderAndSlack verifies the list's invariants: the entries are in
// non-increasing priority, and no rule stays alive in the slack behind len.
func checkOrderAndSlack(tc *TCAM) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for i := 1; i < len(tc.rules); i++ {
		if tc.rules[i-1].Priority < tc.rules[i].Priority {
			return fmt.Errorf("entries %d and %d out of priority order", i-1, i)
		}
	}
	for i, r := range tc.rules[len(tc.rules):cap(tc.rules)] {
		if r.Match != (rule.Match{}) || r.Action != 0 || r.Provenance != nil {
			return fmt.Errorf("slack slot %d keeps %v alive", len(tc.rules)+i, r)
		}
	}
	return nil
}

// FuzzTable runs the fuzzer's bytes as a case over every step.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	// Capacity 8; install two allow rules that differ only in VRF (0, 1);
	// corrupt the second's VRF low bit, so both entries carry one key; then
	// RemoveKeys over every entry's key, which names that key twice.
	f.Add([]byte{8,
		0, 2, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
		5, 0, 0, 1, 0, 0, 0,
		3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		runTable(t, c, tableCase{capacity: c.Intn(48), steps: min(len(data), 400), ops: allOps}, &tableStats{})
	})
}
