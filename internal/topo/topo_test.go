package topo

import (
	"reflect"
	"testing"

	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
)

func TestAddSwitchIdempotentAndSorted(t *testing.T) {
	tp := New(3, 1)
	tp.AddSwitch(2)
	tp.AddSwitch(2)
	if got := tp.Switches(); !reflect.DeepEqual(got, []object.ID{1, 2, 3}) {
		t.Errorf("Switches = %v", got)
	}
	if tp.NumSwitches() != 3 {
		t.Errorf("NumSwitches = %d", tp.NumSwitches())
	}
}

func TestAttachAndQueries(t *testing.T) {
	tp := New()
	tp.Attach(10, 1)
	tp.Attach(10, 2)
	tp.Attach(20, 2)

	if !tp.HasSwitch(1) || !tp.HasSwitch(2) || tp.HasSwitch(3) {
		t.Error("HasSwitch wrong")
	}
	if got := tp.SwitchesHosting(10); !reflect.DeepEqual(got, []object.ID{1, 2}) {
		t.Errorf("SwitchesHosting(10) = %v", got)
	}
	if tp.SwitchesHosting(99) != nil {
		t.Error("unknown queries should return nil")
	}
	if got := tp.SwitchesHosting(20); !reflect.DeepEqual(got, []object.ID{2}) {
		t.Errorf("SwitchesHosting(20) = %v", got)
	}
}

func TestSwitchesForPair(t *testing.T) {
	tp := New()
	tp.Attach(10, 1)
	tp.Attach(10, 2)
	tp.Attach(20, 2)
	tp.Attach(20, 3)

	got := tp.SwitchesForPair(10, 20)
	if !reflect.DeepEqual(got, []object.ID{1, 2, 3}) {
		t.Errorf("SwitchesForPair = %v, want [1 2 3]", got)
	}
	// Same EPG twice: just its switches, no duplicates.
	got = tp.SwitchesForPair(10, 10)
	if !reflect.DeepEqual(got, []object.ID{1, 2}) {
		t.Errorf("SwitchesForPair(10,10) = %v", got)
	}
	if got := tp.SwitchesForPair(98, 99); got != nil {
		t.Errorf("unknown pair footprint = %v, want nil", got)
	}
}

func buildPolicy() *policy.Policy {
	p := policy.New("t")
	p.AddVRF(policy.VRF{ID: 1})
	p.AddEPG(policy.EPG{ID: 10, VRF: 1})
	p.AddEPG(policy.EPG{ID: 20, VRF: 1})
	p.AddEndpoint(policy.Endpoint{ID: 1, EPG: 10, Switch: 5})
	p.AddEndpoint(policy.Endpoint{ID: 2, EPG: 20, Switch: 6})
	p.AddFilter(policy.Filter{ID: 7, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddContract(policy.Contract{ID: 9, Filters: []object.ID{7}})
	p.Bind(10, 20, 9)
	return p
}

func TestFromPolicy(t *testing.T) {
	p := buildPolicy()
	tp := FromPolicy(p)
	if !reflect.DeepEqual(tp.Switches(), []object.ID{5, 6}) {
		t.Errorf("Switches = %v", tp.Switches())
	}
	if !reflect.DeepEqual(tp.SwitchesHosting(10), []object.ID{5}) || !reflect.DeepEqual(tp.SwitchesHosting(20), []object.ID{6}) {
		t.Error("attachments missing")
	}
	if err := tp.Validate(p); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsUnknownSwitch(t *testing.T) {
	p := buildPolicy()
	tp := New(5) // switch 6 missing
	tp.Attach(10, 5)
	if err := tp.Validate(p); err == nil {
		t.Error("Validate should reject endpoint on unknown switch")
	}
}
