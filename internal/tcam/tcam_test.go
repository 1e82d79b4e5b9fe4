package tcam

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"scout/internal/object"
	"scout/internal/rule"
)

func mkRule(vrf, src, dst object.ID, port uint16, prio int) rule.Rule {
	return rule.Rule{
		Match: rule.Match{
			VRF: vrf, SrcEPG: src, DstEPG: dst,
			Proto: rule.ProtoTCP, PortLo: port, PortHi: port,
		},
		Action:   rule.Allow,
		Priority: prio,
	}
}

func TestInstallAndLen(t *testing.T) {
	tc := New(10)
	if tc.Capacity() != 10 || tc.Len() != 0 {
		t.Fatalf("fresh tcam: cap=%d len=%d", tc.Capacity(), tc.Len())
	}
	if err := tc.Install(mkRule(1, 2, 3, 80, 10)); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 1 {
		t.Errorf("Len = %d", tc.Len())
	}
	// Idempotent for identical keys.
	if err := tc.Install(mkRule(1, 2, 3, 80, 10)); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 1 {
		t.Errorf("duplicate install must be idempotent, Len = %d", tc.Len())
	}
}

func TestDefaultCapacity(t *testing.T) {
	if New(0).Capacity() != DefaultCapacity || New(-5).Capacity() != DefaultCapacity {
		t.Error("non-positive capacity must select the default")
	}
}

func TestOverflow(t *testing.T) {
	tc := New(2)
	if err := tc.Install(mkRule(1, 1, 1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tc.Install(mkRule(1, 1, 1, 2, 10)); err != nil {
		t.Fatal(err)
	}
	err := tc.Install(mkRule(1, 1, 1, 3, 10))
	if !errors.Is(err, ErrFull) {
		t.Errorf("overflow error = %v, want ErrFull", err)
	}
	if tc.Len() != 2 {
		t.Errorf("Len = %d after a refused install, want 2", tc.Len())
	}
}

func TestRemove(t *testing.T) {
	tc := New(4)
	r := mkRule(1, 2, 3, 80, 10)
	if err := tc.Install(r); err != nil {
		t.Fatal(err)
	}
	if !tc.Remove(r.Key()) {
		t.Error("Remove should report success")
	}
	if tc.Remove(r.Key()) {
		t.Error("second Remove should report failure")
	}
	if tc.Len() != 0 {
		t.Errorf("Len after remove = %d", tc.Len())
	}
}

func TestClearAndKeys(t *testing.T) {
	tc := New(4)
	for p := uint16(1); p <= 3; p++ {
		if err := tc.Install(mkRule(1, 2, 3, p, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tc.Keys()) != 3 {
		t.Errorf("Keys = %d", len(tc.Keys()))
	}
	tc.Clear()
	if tc.Len() != 0 || len(tc.Keys()) != 0 {
		t.Error("Clear must empty the table")
	}
}

func TestClassifyFirstMatchWins(t *testing.T) {
	tc := New(8)
	deny := mkRule(1, 2, 3, 80, 20)
	deny.Action = rule.Deny
	if err := tc.Install(deny); err != nil {
		t.Fatal(err)
	}
	if err := tc.Install(mkRule(1, 2, 3, 80, 10)); err != nil {
		t.Fatal(err)
	}
	action, matched := tc.Classify(1, 2, 3, rule.ProtoTCP, 80)
	if !matched || action != rule.Deny {
		t.Errorf("Classify = %v,%v; want deny (higher priority first)", action, matched)
	}
	if _, matched := tc.Classify(9, 9, 9, rule.ProtoTCP, 80); matched {
		t.Error("no rule should match unrelated traffic")
	}
}

func TestClassifyInsertionOrderWithinPriority(t *testing.T) {
	tc := New(8)
	first := mkRule(1, 2, 3, 80, 10)
	second := mkRule(1, 2, 3, 80, 10)
	second.Match.PortHi = 90 // different key, also covers port 80
	second.Action = rule.Deny
	if err := tc.Install(first); err != nil {
		t.Fatal(err)
	}
	if err := tc.Install(second); err != nil {
		t.Fatal(err)
	}
	action, _ := tc.Classify(1, 2, 3, rule.ProtoTCP, 80)
	if action != rule.Allow {
		t.Error("within a priority band, earlier-programmed entry wins")
	}
}

// TestClassifyMatchesLinearOracle cross-checks Classify against a direct
// scan over the Rules() snapshot.
func TestClassifyMatchesLinearOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := New(64)
		for i := 0; i < 30; i++ {
			r := mkRule(
				object.ID(rng.Intn(3)), object.ID(rng.Intn(4)), object.ID(rng.Intn(4)),
				uint16(rng.Intn(64)), rng.Intn(3)*10)
			r.Match.PortHi = r.Match.PortLo + uint16(rng.Intn(16))
			if rng.Intn(2) == 0 {
				r.Action = rule.Deny
			}
			_ = tc.Install(r)
		}
		snapshot := tc.Rules()
		for probe := 0; probe < 50; probe++ {
			vrf := object.ID(rng.Intn(3))
			src := object.ID(rng.Intn(4))
			dst := object.ID(rng.Intn(4))
			port := uint16(rng.Intn(96))
			gotAction, gotMatch := tc.Classify(vrf, src, dst, rule.ProtoTCP, port)
			var wantAction rule.Action
			wantMatch := false
			for _, r := range snapshot {
				if r.Match.Covers(vrf, src, dst, rule.ProtoTCP, port) {
					wantAction, wantMatch = r.Action, true
					break
				}
			}
			if gotMatch != wantMatch || (wantMatch && gotAction != wantAction) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestClassifyBatchMatchesClassify is the batch-path property test:
// over randomized tables (priority ties included) and packet batches
// (no-match packets included), ClassifyBatch must agree with per-packet
// Classify outcome-for-outcome.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := New(128)
		nRules := rng.Intn(60)
		for i := 0; i < nRules; i++ {
			r := mkRule(
				object.ID(rng.Intn(3)), object.ID(rng.Intn(4)), object.ID(rng.Intn(4)),
				uint16(rng.Intn(64)), rng.Intn(3)*10) // few bands => priority ties
			r.Match.PortHi = r.Match.PortLo + uint16(rng.Intn(16))
			if rng.Intn(2) == 0 {
				r.Action = rule.Deny
			}
			_ = tc.Install(r)
		}
		pkts := make([]Packet, rng.Intn(40))
		for i := range pkts {
			pkts[i] = Packet{
				VRF: object.ID(rng.Intn(4)), Src: object.ID(rng.Intn(5)), Dst: object.ID(rng.Intn(5)),
				Proto: rule.ProtoTCP, Port: uint16(rng.Intn(96)), // over-wide ranges => no-match packets
			}
		}
		got := tc.ClassifyBatch(pkts)
		if len(got) != len(pkts) {
			return false
		}
		for i, p := range pkts {
			action, matched := tc.Classify(p.VRF, p.Src, p.Dst, p.Proto, p.Port)
			if got[i].Matched != matched || (matched && got[i].Action != action) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	tc := populatedT(t, 4)
	if out := tc.ClassifyBatch(nil); len(out) != 0 {
		t.Errorf("empty batch returned %d outcomes", len(out))
	}
}

func populatedT(t *testing.T, n int) *TCAM {
	t.Helper()
	tc := New(n)
	for p := uint16(0); p < uint16(n); p++ {
		if err := tc.Install(mkRule(1, 2, 3, p, 10)); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// checkIndex verifies the table's invariants against a linear oracle:
// the table is in match order (priority descending, install sequence
// ascending), every key resolves to the ID of its first occurrence and
// that ID binary-searches back to the occurrence's position, and no rule
// stays alive in the slack behind len.
func checkIndex(tc *TCAM) error {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	if len(tc.seqs) != len(tc.rules) {
		return fmt.Errorf("%d seqs for %d rules", len(tc.seqs), len(tc.rules))
	}
	firsts := make(map[rule.Key]int)
	for i, r := range tc.rules {
		if i > 0 && !tc.idLocked(i-1).before(tc.idLocked(i)) {
			return fmt.Errorf("entries %d and %d out of match order", i-1, i)
		}
		if got := tc.posLocked(tc.idLocked(i)); got != i {
			return fmt.Errorf("entry %d resolves to position %d", i, got)
		}
		k := r.Key()
		if _, seen := firsts[k]; !seen {
			firsts[k] = i
		}
	}
	if len(firsts) != len(tc.index) {
		return fmt.Errorf("index has %d entries, want %d", len(tc.index), len(firsts))
	}
	for k, want := range firsts {
		if got, ok := tc.index[k]; !ok || got != tc.idLocked(want) {
			return fmt.Errorf("index[%v] = %v, want first occurrence %d (%v)", k, got, want, tc.idLocked(want))
		}
	}
	for i, r := range tc.rules[len(tc.rules):cap(tc.rules)] {
		if r.Match != (rule.Match{}) || r.Action != 0 || r.Provenance != nil {
			return fmt.Errorf("slack slot %d keeps %v alive", len(tc.rules)+i, r)
		}
	}
	return nil
}

// withoutFirst is the linear oracle for Remove: rules minus the first
// occurrence of each key, taken in order, and how many were found.
func withoutFirst(rules []rule.Rule, keys ...rule.Key) ([]rule.Rule, int) {
	out := append([]rule.Rule(nil), rules...)
	removed := 0
	for _, k := range keys {
		for i, r := range out {
			if r.Key() == k {
				out = append(out[:i], out[i+1:]...)
				removed++
				break
			}
		}
	}
	return out, removed
}

// TestIndexConsistentUnderChurn hammers the key index with the full
// mutation surface — install, remove (single and batched), evict, corrupt
// (which can alias keys) — and after every step checks the invariants
// against the linear oracle; Remove and RemoveKeys must take out exactly
// the first occurrence of each key and nothing else.
func TestIndexConsistentUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tc := New(64)
		for step := 0; step < 120; step++ {
			switch rng.Intn(6) {
			case 0, 1:
				r := mkRule(
					object.ID(rng.Intn(3)), object.ID(rng.Intn(3)), object.ID(rng.Intn(3)),
					uint16(rng.Intn(16)), rng.Intn(3)*10)
				_ = tc.Install(r)
			case 2:
				rules := tc.Rules()
				if len(rules) > 0 {
					k := rules[rng.Intn(len(rules))].Key()
					want, _ := withoutFirst(rules, k)
					if !tc.Remove(k) || !rule.SlicesEqual(tc.Rules(), want) {
						t.Fatalf("seed %d step %d: Remove did not remove exactly the first occurrence", seed, step)
					}
				}
			case 3:
				tc.EvictRandom(1+rng.Intn(2), rng)
			case 4:
				tc.Corrupt(1+rng.Intn(2), CorruptionField(1+rng.Intn(4)), rng)
			case 5:
				rules := tc.Rules()
				keys := []rule.Key{mkRule(9, 9, 9, 9, 10).Key()} // absent
				for i := rng.Intn(4); i > 0 && len(rules) > 0; i-- {
					keys = append(keys, rules[rng.Intn(len(rules))].Key()) // may repeat
				}
				want, n := withoutFirst(rules, keys...)
				if got := tc.RemoveKeys(keys); got != n || !rule.SlicesEqual(tc.Rules(), want) {
					t.Fatalf("seed %d step %d: RemoveKeys removed %d, want %d, or left the wrong rules", seed, step, got, n)
				}
			}
			if err := checkIndex(tc); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestRemoveKeysMatchesSequentialRemove is the batch path's differential
// test: on twin tables — plain, and with corruption-aliased keys —
// RemoveKeys(keys) must leave the same rules in the same order and return
// the same count as one Remove per key, with duplicate and absent keys
// in the batch.
func TestRemoveKeysMatchesSequentialRemove(t *testing.T) {
	build := func(seed int64, corrupt bool) *TCAM {
		rng := rand.New(rand.NewSource(seed))
		tc := New(512)
		for i := 0; i < 600; i++ { // fills ~4/5 of the 384-key space
			r := mkRule(
				object.ID(rng.Intn(2)), object.ID(rng.Intn(4)), object.ID(rng.Intn(4)),
				uint16(rng.Intn(12)), rng.Intn(4)*10)
			r.Provenance = []object.Ref{object.Filter(object.ID(i))}
			_ = tc.Install(r)
		}
		if corrupt {
			// EPG IDs are two bits wide here, so a flip of either low
			// bit usually lands on another installed rule's key; the
			// other 14 bit positions just scatter.
			tc.Corrupt(24, CorruptSrcEPG, rng)
			tc.Corrupt(24, CorruptDstEPG, rng)
		}
		return tc
	}
	aliased := 0
	for seed := int64(0); seed < 40; seed++ {
		corrupt := seed%2 == 1
		batch, serial := build(seed, corrupt), build(seed, corrupt)
		if len(batch.Keys()) < batch.Len() {
			aliased++
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		rules := batch.Rules()
		var keys []rule.Key
		for i := 0; i < 40; i++ {
			switch rng.Intn(4) {
			case 0:
				keys = append(keys, mkRule(7, 7, 7, uint16(i), 10).Key()) // absent
			case 1:
				if len(keys) > 0 {
					keys = append(keys, keys[rng.Intn(len(keys))]) // duplicate
				}
			default:
				keys = append(keys, rules[rng.Intn(len(rules))].Key())
			}
		}
		want := 0
		for _, k := range keys {
			if serial.Remove(k) {
				want++
			}
		}
		if got := batch.RemoveKeys(keys); got != want {
			t.Fatalf("seed %d: RemoveKeys = %d, sequential Remove = %d", seed, got, want)
		}
		if !rule.SlicesEqual(batch.Rules(), serial.Rules()) {
			t.Fatalf("seed %d: tables differ after batched vs sequential removal", seed)
		}
		if err := checkIndex(batch); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if aliased < 10 {
		t.Errorf("only %d of 20 corrupted tables had aliased keys; the fallback path is barely tested", aliased)
	}
	if n := New(4).RemoveKeys(nil); n != 0 {
		t.Errorf("RemoveKeys(nil) on an empty table = %d", n)
	}
}

// TestInstallAllMatchesSequentialInstall is the bulk install's differential
// test: on twin tables, InstallAll(batch) must leave the same rules in the
// same order under the same index, and hold as many of the batch as a loop
// of Install accepts — with duplicate keys inside the batch and against the
// table, priorities that force mid-table inserts, and a table that fills
// midway through the batch. It also holds the table to the shared-rule
// contract: installed rules share the caller's provenance slices, and no
// table operation (Remove, RemoveKeys, EvictRandom, Corrupt) changes a
// caller's rule.
func TestInstallAllMatchesSequentialInstall(t *testing.T) {
	overflowed := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(64)
		bulk, serial := New(capacity), New(capacity)
		for round := 0; round < 3; round++ { // onto an empty table, then a populated one
			batch := make([]rule.Rule, rng.Intn(60))
			for i := range batch {
				batch[i] = mkRule(
					object.ID(rng.Intn(2)), object.ID(rng.Intn(4)), object.ID(rng.Intn(4)),
					uint16(rng.Intn(6)), rng.Intn(3)*10)
				batch[i].Provenance = []object.Ref{object.Filter(object.ID(i))}
			}
			want := 0
			for _, r := range batch {
				err := serial.Install(r)
				switch {
				case err == nil:
					want++
				case !errors.Is(err, ErrFull):
					t.Fatalf("seed %d: Install: %v", seed, err)
				}
			}
			if want < len(batch) {
				overflowed++
			}
			if got := bulk.InstallAll(batch); got != want {
				t.Fatalf("seed %d round %d: InstallAll holds %d of %d, sequential Install accepted %d",
					seed, round, got, len(batch), want)
			}
			if !rule.SlicesEqual(bulk.Rules(), serial.Rules()) {
				t.Fatalf("seed %d round %d: tables differ after bulk vs sequential install", seed, round)
			}
			if !reflect.DeepEqual(bulk.index, serial.index) || !reflect.DeepEqual(bulk.seqs, serial.seqs) {
				t.Fatalf("seed %d round %d: indexes differ after bulk vs sequential install", seed, round)
			}
			if err := checkIndex(bulk); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			// The table shares the caller's provenance slices (rule.Rule): no
			// table operation changes a caller's rule. Run on the last round,
			// after which the twins are compared no more.
			if round == 2 && len(batch) > 0 {
				want := make([]rule.Rule, len(batch))
				for i, r := range batch {
					want[i] = r.Clone()
				}
				bulk.Remove(batch[0].Key())
				bulk.RemoveKeys([]rule.Key{batch[len(batch)-1].Key(), batch[len(batch)/2].Key()})
				for _, field := range []CorruptionField{CorruptVRF, CorruptSrcEPG, CorruptDstEPG, CorruptPort} {
					bulk.Corrupt(3, field, rng)
				}
				bulk.EvictRandom(3, rng)
				if !rule.SlicesEqual(batch, want) {
					t.Fatalf("seed %d: a table operation changed the caller's rules", seed)
				}
				if err := checkIndex(bulk); err != nil {
					t.Fatalf("seed %d: after the table operations: %v", seed, err)
				}
			}
		}
	}
	if overflowed < 20 {
		t.Errorf("only %d batches overflowed; the refused path is barely tested", overflowed)
	}
	if n := New(4).InstallAll(nil); n != 0 {
		t.Errorf("InstallAll(nil) = %d", n)
	}
}

func TestEvictRandom(t *testing.T) {
	tc := New(16)
	for p := uint16(1); p <= 10; p++ {
		if err := tc.Install(mkRule(1, 2, 3, p, 10)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	evicted := tc.EvictRandom(4, rng)
	if len(evicted) != 4 || tc.Len() != 6 {
		t.Errorf("evicted=%d len=%d", len(evicted), tc.Len())
	}
	// Evicting more than present drains the table without error.
	evicted = tc.EvictRandom(100, rng)
	if len(evicted) != 6 || tc.Len() != 0 {
		t.Errorf("drain: evicted=%d len=%d", len(evicted), tc.Len())
	}
}

func TestCorruptChangesKeysButNotLen(t *testing.T) {
	tc := New(16)
	for p := uint16(1); p <= 5; p++ {
		if err := tc.Install(mkRule(1, 2, 3, p, 10)); err != nil {
			t.Fatal(err)
		}
	}
	before := tc.Keys()
	rng := rand.New(rand.NewSource(3))
	damaged := tc.Corrupt(3, CorruptVRF, rng)
	if len(damaged) == 0 {
		t.Fatal("corruption should damage entries")
	}
	if tc.Len() != 5 {
		t.Errorf("corruption must not change entry count, Len=%d", tc.Len())
	}
	after := tc.Keys()
	changed := 0
	for k := range before {
		if _, still := after[k]; !still {
			changed++
		}
	}
	if changed == 0 {
		t.Error("corrupted entries must have different keys")
	}
	// Damaged keys are the pre-corruption identities.
	for _, k := range damaged {
		if _, was := before[k]; !was {
			t.Errorf("damaged key %v was not present before corruption", k)
		}
	}
}

func TestCorruptSkipsDefaultDeny(t *testing.T) {
	tc := New(4)
	if err := tc.Install(rule.DefaultDeny()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if damaged := tc.Corrupt(10, CorruptVRF, rng); len(damaged) != 0 {
		t.Error("default deny must never be corrupted")
	}
}

func TestCorruptPortKeepsRangeValid(t *testing.T) {
	tc := New(8)
	r := mkRule(1, 2, 3, 80, 10)
	if err := tc.Install(r); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		tc.Corrupt(1, CorruptPort, rng)
		for _, got := range tc.Rules() {
			if got.Match.PortLo > got.Match.PortHi {
				t.Fatalf("corruption produced inverted range: %v", got.Match)
			}
		}
	}
}

func TestRulesSnapshotIsACopy(t *testing.T) {
	tc := New(4)
	if err := tc.Install(mkRule(1, 2, 3, 80, 10)); err != nil {
		t.Fatal(err)
	}
	snap := tc.Rules()
	snap[0].Match.VRF = 999
	action, matched := tc.Classify(1, 2, 3, rule.ProtoTCP, 80)
	if !matched || action != rule.Allow {
		t.Error("mutating the snapshot must not affect the table")
	}
}

// TestRulesSnapshotSharedUntilWrite pins the snapshot contract: reads with
// no write between them share one backing array, every write path
// publishes a fresh snapshot, and a snapshot a reader holds never changes.
func TestRulesSnapshotSharedUntilWrite(t *testing.T) {
	tc := New(64)
	for p := uint16(0); p < 20; p++ {
		r := mkRule(1, 2, 3, p, int(p%3)*10)
		r.Provenance = []object.Ref{object.Filter(object.ID(p))}
		if err := tc.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	extra := mkRule(4, 5, 6, 99, 10)
	writes := []struct {
		name  string
		write func()
	}{
		{"Install", func() { _ = tc.Install(extra) }},
		{"Remove", func() { tc.Remove(extra.Key()) }},
		{"RemoveKeys", func() { tc.RemoveKeys([]rule.Key{mkRule(1, 2, 3, 0, 0).Key(), mkRule(1, 2, 3, 7, 0).Key()}) }},
		{"EvictRandom", func() { tc.EvictRandom(2, rng) }},
		{"Corrupt", func() {
			for len(tc.Corrupt(1, CorruptSrcEPG, rng)) == 0 {
			}
		}},
		{"Clear", func() { tc.Clear() }},
	}
	for _, w := range writes {
		held := tc.Rules()
		if !rule.SameSlice(held, tc.Rules()) {
			t.Fatalf("before %s: two reads with no write between must share a backing array", w.name)
		}
		frozen := make([]rule.Rule, len(held))
		for i, r := range held {
			frozen[i] = r.Clone()
		}
		w.write()
		after := tc.Rules()
		if rule.SameSlice(held, after) {
			t.Errorf("%s did not publish a new snapshot", w.name)
		}
		if rule.SlicesEqual(held, after) {
			t.Errorf("%s left the table contents unchanged; the case proves nothing", w.name)
		}
		if !rule.SlicesEqual(held, frozen) {
			t.Errorf("%s changed a snapshot a reader still holds", w.name)
		}
	}
	// A write that changes nothing keeps the published snapshot.
	_ = tc.Install(extra)
	held := tc.Rules()
	_ = tc.Install(extra)
	if tc.Remove(mkRule(8, 8, 8, 8, 8).Key()) || !rule.SameSlice(held, tc.Rules()) {
		t.Error("a duplicate Install or a Remove of an absent key must not republish")
	}
}

// TestConcurrentAccess races Rules() readers against Install, Remove and
// RemoveKeys writers (run under -race in CI): every snapshot a reader gets
// must be internally consistent — in match order, free of duplicate keys —
// whatever write it lands between.
func TestConcurrentAccess(t *testing.T) {
	tc := New(1024)
	const n = 200
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for p := uint16(0); p < n; p++ {
			_ = tc.Install(mkRule(1, 2, 3, p, int(p%4)*10))
		}
	}()
	go func() {
		defer writers.Done()
		// Withdraw the odd-VRF rules this goroutine installs itself, one
		// by one and in batches, so the first writer's 200 all survive.
		for p := uint16(0); p < n; p += 4 {
			var keys []rule.Key
			for q := p; q < p+4; q++ {
				r := mkRule(9, 2, 3, q, int(q%4)*10)
				_ = tc.Install(r)
				keys = append(keys, r.Key())
			}
			tc.Remove(keys[0])
			tc.RemoveKeys(keys)
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tc.Rules()
				seen := make(map[rule.Key]struct{}, len(snap))
				for i, r := range snap {
					if i > 0 && snap[i-1].Priority < r.Priority {
						t.Errorf("snapshot out of priority order at %d", i)
						return
					}
					if _, dup := seen[r.Key()]; dup {
						t.Errorf("snapshot holds %v twice", r)
						return
					}
					seen[r.Key()] = struct{}{}
				}
				tc.Classify(1, 2, 3, rule.ProtoTCP, uint16(len(snap)))
				tc.Len()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tc.Len() != n {
		t.Errorf("Len = %d, want %d", tc.Len(), n)
	}
	if err := checkIndex(tc); err != nil {
		t.Error(err)
	}
}
