// Package topo models the physical network topology relevant to policy
// deployment: the set of leaf switches and which EPGs have endpoints
// attached to each switch. The paper's controller pushes the instructions
// for an EPG to exactly the switches that host endpoints of that EPG, so
// this attachment view determines where every logical rule must land.
package topo

import (
	"fmt"
	"sort"

	"scout/internal/object"
	"scout/internal/policy"
)

// Topology is the leaf-switch attachment view of a deployment.
type Topology struct {
	switches []object.ID
	// epgsOn[switch] = set of EPGs with at least one endpoint on switch.
	epgsOn map[object.ID]object.Set
	// switchesOf[epg] = set of switches hosting endpoints of epg.
	switchesOf map[object.ID]object.Set
}

// New creates a topology with the given switch IDs and no attachments.
func New(switches ...object.ID) *Topology {
	t := &Topology{
		epgsOn:     make(map[object.ID]object.Set),
		switchesOf: make(map[object.ID]object.Set),
	}
	for _, s := range switches {
		t.AddSwitch(s)
	}
	return t
}

// FromPolicy builds the topology implied by a policy's endpoint placements.
// Every switch referenced by some endpoint is added automatically.
func FromPolicy(p *policy.Policy) *Topology {
	t := New()
	for _, ep := range p.Endpoints {
		t.AddSwitch(ep.Switch)
		t.Attach(ep.EPG, ep.Switch)
	}
	return t
}

// AddSwitch registers a switch (idempotent).
func (t *Topology) AddSwitch(sw object.ID) {
	if _, ok := t.epgsOn[sw]; ok {
		return
	}
	t.epgsOn[sw] = make(object.Set)
	t.switches = append(t.switches, sw)
	sort.Slice(t.switches, func(i, j int) bool { return t.switches[i] < t.switches[j] })
}

// Attach records that epg has an endpoint on switch sw.
func (t *Topology) Attach(epg, sw object.ID) {
	t.AddSwitch(sw)
	t.epgsOn[sw].Add(object.EPG(epg))
	set, ok := t.switchesOf[epg]
	if !ok {
		set = make(object.Set)
		t.switchesOf[epg] = set
	}
	set.Add(object.Switch(sw))
}

// Switches returns the sorted switch IDs.
func (t *Topology) Switches() []object.ID {
	out := make([]object.ID, len(t.switches))
	copy(out, t.switches)
	return out
}

// NumSwitches returns the number of registered switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// HasSwitch reports whether sw is part of the topology.
func (t *Topology) HasSwitch(sw object.ID) bool {
	_, ok := t.epgsOn[sw]
	return ok
}

// EPGsOn returns the sorted IDs of EPGs with endpoints on switch sw.
func (t *Topology) EPGsOn(sw object.ID) []object.ID {
	set, ok := t.epgsOn[sw]
	if !ok {
		return nil
	}
	return idsOf(set)
}

// SwitchesHosting returns the sorted IDs of switches hosting endpoints of epg.
func (t *Topology) SwitchesHosting(epg object.ID) []object.ID {
	set, ok := t.switchesOf[epg]
	if !ok {
		return nil
	}
	return idsOf(set)
}

// Hosts reports whether switch sw hosts at least one endpoint of epg.
func (t *Topology) Hosts(sw, epg object.ID) bool {
	set, ok := t.epgsOn[sw]
	return ok && set.Has(object.EPG(epg))
}

// SwitchesForPair returns the sorted switches that must carry rules for the
// EPG pair (a, b): every switch hosting endpoints of either EPG. This is
// the deployment footprint of the pair (paper §II-A: EPG instructions go to
// the switches its endpoints connect to).
func (t *Topology) SwitchesForPair(a, b object.ID) []object.ID {
	as := t.SwitchesHosting(a)
	if a == b {
		return as
	}
	// Both host lists are sorted and duplicate-free: merge them.
	bs := t.SwitchesHosting(b)
	var out []object.ID
	for len(as) > 0 && len(bs) > 0 {
		switch {
		case as[0] < bs[0]:
			out, as = append(out, as[0]), as[1:]
		case bs[0] < as[0]:
			out, bs = append(out, bs[0]), bs[1:]
		default:
			out, as, bs = append(out, as[0]), as[1:], bs[1:]
		}
	}
	return append(append(out, as...), bs...)
}

// Validate checks that every endpoint in p is attached to a switch known to
// the topology.
func (t *Topology) Validate(p *policy.Policy) error {
	for id, ep := range p.Endpoints {
		if !t.HasSwitch(ep.Switch) {
			return fmt.Errorf("endpoint %d attached to unknown switch %d", id, ep.Switch)
		}
	}
	return nil
}

func idsOf(set object.Set) []object.ID {
	out := make([]object.ID, 0, set.Len())
	for _, r := range set.Sorted() {
		out = append(out, r.ID)
	}
	return out
}
