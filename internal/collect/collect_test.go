package collect

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
)

// The package's case runner: a stream of fabric writes and collections,
// generated from an oracle.Choices, with the fabric's event log as the
// record of which switches were written. After every step every epoch the
// run holds must equal its rules as collected; after a collection the new
// epoch must equal the fabric's state and share the previous epoch's slice
// where nothing was written, and DirtySwitches against every held epoch —
// sometimes with a switch dropped from a copy of one, or a list reversed —
// must agree with a slice comparison. Each test is a case: a seed range and
// the steps its name says it stresses.

type op int

const (
	opSnapshot op = iota // a collection
	opEvict
	opCorrupt
	opEdit // a filter joins contract 201: every switch gains rules
)

// deployedFabric is two switches, each hosting one EPG of a bound pair.
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

// runCollect drives steps drawn from ops for each seed below seeds.
func runCollect(t *testing.T, seeds int64, steps int, ops ...op) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		c, f := oracle.FromSeed(seed), deployedFabric(t)
		col, sws := New(f, 0), switches
		var held []*Epoch
		var copies []*Epoch
		// written is the switches written since the last collection.
		seq, written := 0, map[object.ID]bool{}
		for i := 0; i < steps; i++ {
			label := fmt.Sprintf("seed %d step %d", seed, i)
			sw := sws[c.Intn(2)]
			var e *Epoch
			switch ops[c.Intn(len(ops))] {
			case opSnapshot:
				e = col.Snapshot()
			case opEvict:
				_, _ = f.EvictTCAM(sw, 1)
			case opCorrupt:
				_, _ = f.CorruptTCAM(sw, 1, tcam.CorruptionField(1+c.Intn(4)))
			case opEdit:
				id := object.ID(1000 + i)
				flt := policy.Filter{ID: id, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, uint16(id))}}
				if err := errors.Join(f.AddFilter(flt), f.AddFilterToContract(201, id)); err != nil {
					t.Fatal(err)
				}
			}
			for j, old := range held {
				if changed := naiveDirty(old, copies[j]); len(changed) > 0 {
					t.Fatalf("%s: epoch %d changed on switches %v", label, old.Seq, changed)
				}
			}
			for _, ev := range f.EventLog().Since(seq) {
				written[ev.Switch] = written[ev.Switch] || ev.Kind == faultlog.EventTCAMChange
			}
			seq = f.EventLog().LastSeq()
			if e == nil {
				continue
			}
			if e.Seq != len(held)+1 || !e.Time.Equal(f.Now()) || len(e.TCAM) != len(sws) {
				t.Fatalf("%s: epoch %d at %v over %d switches", label, e.Seq, e.Time, len(e.TCAM))
			}
			now := f.CollectAll()
			for _, sw := range sws {
				switch {
				case !rule.SlicesEqual(e.TCAM[sw], now[sw]):
					t.Fatalf("%s: switch %d differs from the fabric", label, sw)
				case len(held) > 0 && !written[sw] && !rule.SameSlice(e.TCAM[sw], held[len(held)-1].TCAM[sw]):
					t.Fatalf("%s: switch %d was not written, but its slice is not the previous epoch's", label, sw)
				}
			}
			clear(written)
			copies = append(copies, &Epoch{TCAM: map[object.ID][]rule.Rule{}})
			for sw, rules := range e.TCAM {
				copies[len(copies)-1].TCAM[sw] = oracle.CloneRules(rules)
			}
			held = append(held, e)
			for _, old := range held {
				older, newer := derive(c, old), derive(c, e)
				if got, want := DirtySwitches(older, newer), naiveDirty(older, newer); !slices.Equal(got, want) {
					t.Fatalf("%s: DirtySwitches(%d, %d) = %v, want %v", label, old.Seq, e.Seq, got, want)
				}
			}
		}
	}
}

// derive returns e, or one time in four a copy with one switch dropped, or
// its list emptied or reversed.
func derive(c *oracle.Choices, e *Epoch) *Epoch {
	if !c.Chance(4) {
		return e
	}
	d := &Epoch{Seq: e.Seq, TCAM: maps.Clone(e.TCAM)}
	switch sw := object.ID(1 + c.Intn(2)); c.Intn(3) {
	case 0:
		delete(d.TCAM, sw)
	case 1:
		d.TCAM[sw] = []rule.Rule{}
	default:
		d.TCAM[sw] = slices.Clone(d.TCAM[sw])
		slices.Reverse(d.TCAM[sw])
	}
	return d
}

// switches is every switch an epoch of the run can hold.
var switches = []object.ID{1, 2}

func naiveDirty(a, b *Epoch) []object.ID {
	var out []object.ID
	for _, sw := range switches {
		ra, inA := a.TCAM[sw]
		rb, inB := b.TCAM[sw]
		if inA != inB || !rule.SlicesEqual(ra, rb) {
			out = append(out, sw)
		}
	}
	return out
}

func TestCleanSnapshotSharesSlices(t *testing.T) {
	runCollect(t, 8, 30, opSnapshot, opSnapshot, opEvict)
}
func TestDirtySwitchesAddition(t *testing.T)       { runCollect(t, 4, 20, opSnapshot, opEdit) }
func TestDirtySwitchesNoChange(t *testing.T)       { runCollect(t, 2, 6, opSnapshot) }
func TestDirtySwitchesAllChange(t *testing.T)      { runCollect(t, 4, 20, opSnapshot, opEdit, opCorrupt) }
func TestDirtySwitchesSingleEviction(t *testing.T) { runCollect(t, 8, 20, opSnapshot, opEvict) }
func TestDirtySwitchesMembershipAndOrder(t *testing.T) {
	runCollect(t, 16, 30, opSnapshot, opEvict, opCorrupt, opEdit)
}
func TestEpochImmutableAgainstFabricChanges(t *testing.T) {
	runCollect(t, 8, 40, opSnapshot, opEvict, opCorrupt, opEdit)
}
