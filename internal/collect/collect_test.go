package collect

import (
	"testing"

	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

func deployedFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	p := policy.New("t")
	p.AddVRF(policy.VRF{ID: 101})
	p.AddEPG(policy.EPG{ID: 1, VRF: 101})
	p.AddEPG(policy.EPG{ID: 2, VRF: 101})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	p.AddFilter(policy.Filter{ID: 80, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddContract(policy.Contract{ID: 201, Filters: []object.ID{80}})
	p.Bind(1, 2, 201)
	f, err := fabric.New(p, topo.FromPolicy(p), fabric.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSnapshotAndHistory(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	e1 := c.Snapshot()
	if e1.Seq != 1 || e1.RuleCount() == 0 {
		t.Fatalf("epoch 1 = %+v", e1)
	}
	e2 := c.Snapshot()
	if e2.Seq != 2 {
		t.Errorf("seq = %d", e2.Seq)
	}
	if len(c.history) != 2 || c.history[0] != e1 || c.history[1] != e2 {
		t.Errorf("history = %v, want epochs 1 and 2", c.history)
	}
}

func TestHistoryBounded(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 3)
	for i := 0; i < 5; i++ {
		c.Snapshot()
	}
	if len(c.history) != 3 || c.history[0].Seq != 3 {
		t.Errorf("history holds %d epochs from seq %d, want the last 3 of 5", len(c.history), c.history[0].Seq)
	}
}

func TestDiffDetectsEviction(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	before := c.Snapshot()

	evicted, err := f.EvictTCAM(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatal("nothing evicted")
	}
	after := c.Snapshot()

	deltas := Diff(before, after)
	if len(deltas) != 1 || deltas[0].Switch != 1 {
		t.Fatalf("deltas = %+v", deltas)
	}
	if len(deltas[0].Removed) != 1 || len(deltas[0].Added) != 0 {
		t.Errorf("delta = +%d -%d, want +0 -1", len(deltas[0].Added), len(deltas[0].Removed))
	}
	if deltas[0].Removed[0].Key() != evicted[0].Key() {
		t.Error("removed rule mismatch")
	}
}

func TestDiffDetectsAddition(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	before := c.Snapshot()
	if err := f.AddFilter(policy.Filter{ID: 443, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 443)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(201, 443); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	deltas := Diff(before, after)
	if len(deltas) != 2 { // both switches gained rules
		t.Fatalf("deltas = %+v", deltas)
	}
	for _, d := range deltas {
		if len(d.Added) == 0 || len(d.Removed) != 0 {
			t.Errorf("switch %d delta = +%d -%d", d.Switch, len(d.Added), len(d.Removed))
		}
	}
}

// TestDirtySwitchesNoChange covers the steady-state edge case of the
// incremental dirty-set path: identical epochs dirty nothing.
func TestDirtySwitchesNoChange(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	a := c.Snapshot()
	b := c.Snapshot()
	if dirty := DirtySwitches(a, b); len(dirty) != 0 {
		t.Errorf("identical epochs dirty = %v, want none", dirty)
	}
}

// TestDirtySwitchesAllChange covers the opposite edge: a policy rollout
// touching every switch dirties the whole fabric, sorted ascending.
func TestDirtySwitchesAllChange(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	before := c.Snapshot()
	if err := f.AddFilter(policy.Filter{ID: 443, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 443)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(201, 443); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	dirty := DirtySwitches(before, after)
	if len(dirty) != 2 || dirty[0] != 1 || dirty[1] != 2 {
		t.Fatalf("dirty = %v, want [1 2]", dirty)
	}
}

func TestDirtySwitchesSingleEviction(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	before := c.Snapshot()
	if _, err := f.EvictTCAM(2, 1); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if dirty := DirtySwitches(before, after); len(dirty) != 1 || dirty[0] != 2 {
		t.Fatalf("dirty = %v, want [2]", dirty)
	}
}

// TestDirtySwitchesMembershipAndOrder pins the contract details on
// synthetic epochs: switches present in only one epoch are dirty, and
// the comparison is order-sensitive (the same sensitivity the
// equivalence checker has), so a reordered rule list counts as dirty.
func TestDirtySwitchesMembershipAndOrder(t *testing.T) {
	r1 := rule.Rule{Match: rule.Match{VRF: 101, SrcEPG: 1, DstEPG: 2, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80}, Action: rule.Allow, Priority: 10}
	r2 := rule.Rule{Match: rule.Match{VRF: 101, SrcEPG: 2, DstEPG: 1, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80}, Action: rule.Allow, Priority: 10}
	older := &Epoch{TCAM: map[object.ID][]rule.Rule{
		1: {r1, r2},
		2: {r1},
	}}
	newer := &Epoch{TCAM: map[object.ID][]rule.Rule{
		1: {r2, r1}, // same set, different order
		3: {r2},     // switch 2 vanished, switch 3 appeared
	}}
	dirty := DirtySwitches(older, newer)
	want := []object.ID{1, 2, 3}
	// Membership is checked before rule content: a switch present in only
	// one epoch is dirty even when its rule list is empty.
	if got := DirtySwitches(&Epoch{TCAM: map[object.ID][]rule.Rule{5: {}}}, &Epoch{TCAM: map[object.ID][]rule.Rule{}}); len(got) != 1 || got[0] != 5 {
		t.Errorf("empty-TCAM switch present only in older: dirty = %v, want [5]", got)
	}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	for i := range want {
		if dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
}

// TestCleanSnapshotSharesSlices pins what makes a clean warm epoch
// O(switches): a full Snapshot of a fabric nobody wrote to hands back, per
// switch, the very slice the previous epoch holds, so DirtySwitches and
// Diff have nothing to compare; a one-rule change re-copies that switch
// alone and leaves the older epoch as it was.
func TestCleanSnapshotSharesSlices(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	e1 := c.Snapshot()
	e2 := c.Snapshot()
	for sw, rules := range e1.TCAM {
		if len(rules) == 0 || !rule.SameSlice(rules, e2.TCAM[sw]) {
			t.Errorf("switch %d: clean re-collection must return the same slice", sw)
		}
	}
	if dirty := DirtySwitches(e1, e2); len(dirty) != 0 {
		t.Errorf("clean epoch dirty = %v, want none", dirty)
	}

	before := oracle.CloneRules(e2.TCAM[1])
	evicted, err := f.EvictTCAM(1, 1)
	if err != nil || len(evicted) != 1 {
		t.Fatalf("evict: %v, %v", evicted, err)
	}
	e3 := c.Snapshot()
	if rule.SameSlice(e2.TCAM[1], e3.TCAM[1]) || len(e3.TCAM[1]) != len(e2.TCAM[1])-1 {
		t.Error("written switch 1 must be re-copied and reflect the eviction")
	}
	if !rule.SameSlice(e2.TCAM[2], e3.TCAM[2]) {
		t.Error("untouched switch 2 must still share its slice")
	}
	if !rule.SlicesEqual(e2.TCAM[1], before) {
		t.Error("the older epochs must not see the write")
	}
	if dirty := DirtySwitches(e2, e3); len(dirty) != 1 || dirty[0] != 1 {
		t.Errorf("dirty = %v, want [1]", dirty)
	}
	if deltas := Diff(e2, e3); len(deltas) != 1 || deltas[0].Switch != 1 || len(deltas[0].Removed) != 1 {
		t.Errorf("deltas = %+v, want one removal on switch 1", deltas)
	}
}

func TestDiffIdenticalEpochsEmpty(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	a := c.Snapshot()
	b := c.Snapshot()
	if deltas := Diff(a, b); len(deltas) != 0 {
		t.Errorf("identical epochs must diff empty: %+v", deltas)
	}
}

func TestEpochImmutableAgainstFabricChanges(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	e := c.Snapshot()
	countBefore := e.RuleCount()
	if _, err := f.EvictTCAM(1, 1); err != nil {
		t.Fatal(err)
	}
	if e.RuleCount() != countBefore {
		t.Error("epoch must be an immutable snapshot")
	}
}

// TestSnapshotSwitchesAliases pins the partial-epoch contract: only the
// named switches are re-read, every other switch's slice aliases the
// previous epoch's backing array (zero copy), and diff semantics over
// the mixed epoch are intact.
func TestSnapshotSwitchesAliases(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	e1 := c.Snapshot()

	if _, err := f.EvictTCAM(1, 1); err != nil {
		t.Fatal(err)
	}
	e2, err := c.SnapshotSwitches([]object.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("partial epoch Seq = %d, want %d", e2.Seq, e1.Seq+1)
	}
	// Clean switch 2 aliases the previous epoch's storage.
	if len(e2.TCAM[2]) == 0 || &e2.TCAM[2][0] != &e1.TCAM[2][0] {
		t.Error("clean switch must alias the previous epoch's rule slice")
	}
	// Dirty switch 1 was re-read and reflects the eviction.
	if len(e2.TCAM[1]) != len(e1.TCAM[1])-1 {
		t.Errorf("dirty switch rules = %d, want %d", len(e2.TCAM[1]), len(e1.TCAM[1])-1)
	}
	if dirty := DirtySwitches(e1, e2); len(dirty) != 1 || dirty[0] != 1 {
		t.Errorf("dirty = %v, want [1]", dirty)
	}
}

// TestSnapshotSwitchesNoHistory pins the degradation rule: with nothing
// to alias, a partial snapshot is a full one.
func TestSnapshotSwitchesNoHistory(t *testing.T) {
	f := deployedFabric(t)
	c := New(f, 0)
	e, err := c.SnapshotSwitches([]object.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.TCAM) != 2 || e.RuleCount() == 0 {
		t.Fatalf("fallback epoch = %+v, want a full collection", e)
	}
}
