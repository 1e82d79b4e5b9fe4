// Package policy implements the abstract network-policy model of the paper
// (§II): tenants express intent as endpoint groups (EPGs) connected by
// contracts that reference filters, all scoped by a VRF. The model mirrors
// Cisco APIC / GBP / PGA-style policy abstractions.
//
// Package compile renders a policy into per-switch logical TCAM rules
// (L-type rules) with full object provenance.
package policy

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"scout/internal/object"
	"scout/internal/rule"
)

// VRF is a virtual-routing-and-forwarding object: the layer-3 scope shared
// by a group of EPGs. A single VRF can span many tenants (and vice versa).
type VRF struct {
	ID   object.ID `json:"id"`
	Name string    `json:"name"`
}

// EPG is an endpoint group: a set of endpoints (servers, VMs, middleboxes)
// belonging to the same application tier, scoped by one VRF.
type EPG struct {
	ID   object.ID `json:"id"`
	Name string    `json:"name"`
	VRF  object.ID `json:"vrf"`
}

// Endpoint is a single attachable workload (server, VM) that belongs to an
// EPG and is physically connected to a leaf switch.
type Endpoint struct {
	ID     object.ID `json:"id"`
	Name   string    `json:"name"`
	EPG    object.ID `json:"epg"`
	Switch object.ID `json:"switch"`
}

// FilterEntry describes one (protocol, port-range, action) clause of a
// filter, e.g. "tcp port 80 allow".
type FilterEntry struct {
	Proto  rule.Protocol `json:"proto"`
	PortLo uint16        `json:"portLo"`
	PortHi uint16        `json:"portHi"`
	Action rule.Action   `json:"action"`
}

// PortEntry is a convenience constructor for a single-port allow entry.
func PortEntry(proto rule.Protocol, port uint16) FilterEntry {
	return FilterEntry{Proto: proto, PortLo: port, PortHi: port, Action: rule.Allow}
}

// Filter is a reusable set of traffic-classification entries. Filters
// implement whitelisting: traffic not covered by an allow entry of some
// applied filter is dropped by the default-deny rule.
type Filter struct {
	ID      object.ID     `json:"id"`
	Name    string        `json:"name"`
	Entries []FilterEntry `json:"entries"`
}

// Contract glues EPG pairs to filters: it defines which filters apply to
// traffic between the EPGs bound to it. Modifying a contract's filter list
// changes behaviour for every EPG pair bound to the contract.
type Contract struct {
	ID      object.ID   `json:"id"`
	Name    string      `json:"name"`
	Filters []object.ID `json:"filters"`
}

// Binding attaches a contract to a (consumer, provider) EPG pair. Rules are
// rendered symmetrically for both traffic directions, as in the paper's
// Figure 2.
type Binding struct {
	From     object.ID `json:"from"`
	To       object.ID `json:"to"`
	Contract object.ID `json:"contract"`
}

// EPGPair is an unordered pair of EPG IDs — the unit that risk models track
// as potentially impacted by shared-risk failures.
type EPGPair struct {
	A object.ID `json:"a"`
	B object.ID `json:"b"`
}

// MakeEPGPair returns the canonical (ordered) form of the pair {a, b}.
func MakeEPGPair(a, b object.ID) EPGPair {
	if b < a {
		a, b = b, a
	}
	return EPGPair{A: a, B: b}
}

// String renders the pair as "a-b".
func (p EPGPair) String() string { return string(p.AppendTo(make([]byte, 0, 16))) }

// AppendTo appends the pair's String form to b. Risk-model builds label
// thousands of elements with it, which is why it does not go through fmt.
func (p EPGPair) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(p.A), 10)
	b = append(b, '-')
	return strconv.AppendUint(b, uint64(p.B), 10)
}

// Compare orders pairs lexicographically.
func (p EPGPair) Compare(q EPGPair) int {
	return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
}

// Policy is a complete tenant network policy: the desired state maintained
// at the controller.
type Policy struct {
	Name      string                  `json:"name"`
	VRFs      map[object.ID]*VRF      `json:"vrfs"`
	EPGs      map[object.ID]*EPG      `json:"epgs"`
	Endpoints map[object.ID]*Endpoint `json:"endpoints"`
	Filters   map[object.ID]*Filter   `json:"filters"`
	Contracts map[object.ID]*Contract `json:"contracts"`
	Bindings  []Binding               `json:"bindings"`
}

// New returns an empty policy with the given name.
func New(name string) *Policy {
	return &Policy{
		Name:      name,
		VRFs:      make(map[object.ID]*VRF),
		EPGs:      make(map[object.ID]*EPG),
		Endpoints: make(map[object.ID]*Endpoint),
		Filters:   make(map[object.ID]*Filter),
		Contracts: make(map[object.ID]*Contract),
	}
}

// AddVRF inserts a VRF object.
func (p *Policy) AddVRF(v VRF) *Policy {
	p.VRFs[v.ID] = &v
	return p
}

// AddEPG inserts an EPG object.
func (p *Policy) AddEPG(e EPG) *Policy {
	p.EPGs[e.ID] = &e
	return p
}

// AddEndpoint inserts an endpoint.
func (p *Policy) AddEndpoint(e Endpoint) *Policy {
	p.Endpoints[e.ID] = &e
	return p
}

// AddFilter inserts a filter object.
func (p *Policy) AddFilter(f Filter) *Policy {
	cp := f
	cp.Entries = append([]FilterEntry(nil), f.Entries...)
	p.Filters[f.ID] = &cp
	return p
}

// AddContract inserts a contract object.
func (p *Policy) AddContract(c Contract) *Policy {
	cp := c
	cp.Filters = append([]object.ID(nil), c.Filters...)
	p.Contracts[c.ID] = &cp
	return p
}

// Bind attaches contract to the EPG pair (from, to).
func (p *Policy) Bind(from, to, contract object.ID) *Policy {
	p.Bindings = append(p.Bindings, Binding{From: from, To: to, Contract: contract})
	return p
}

// Validate checks referential integrity of the policy: every EPG references
// an existing VRF, every endpoint an existing EPG, every contract existing
// filters, every binding existing EPGs (in the same VRF) and contract, and
// every filter validates. It names the lowest-ID offender of a kind.
func (p *Policy) Validate() error {
	for _, id := range sortedIDs(p.EPGs) {
		e := p.EPGs[id]
		if _, ok := p.VRFs[e.VRF]; !ok {
			return fmt.Errorf("policy %q: epg %d references unknown vrf %d", p.Name, id, e.VRF)
		}
	}
	for _, id := range sortedIDs(p.Endpoints) {
		ep := p.Endpoints[id]
		if _, ok := p.EPGs[ep.EPG]; !ok {
			return fmt.Errorf("policy %q: endpoint %d references unknown epg %d", p.Name, id, ep.EPG)
		}
	}
	for _, id := range sortedIDs(p.Contracts) {
		for _, f := range p.Contracts[id].Filters {
			if _, ok := p.Filters[f]; !ok {
				return fmt.Errorf("policy %q: contract %d references unknown filter %d", p.Name, id, f)
			}
		}
	}
	for i, b := range p.Bindings {
		if err := p.ValidateBinding(b); err != nil {
			return fmt.Errorf("policy %q: binding %d %w", p.Name, i, err)
		}
	}
	for _, id := range sortedIDs(p.Filters) {
		if err := p.Filters[id].Validate(); err != nil {
			return fmt.Errorf("policy %q: filter %d has %w", p.Name, id, err)
		}
	}
	return nil
}

// sortedIDs returns the keys of an object map in ascending order.
func sortedIDs[T any](m map[object.ID]*T) []object.ID {
	ids := make([]object.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// ValidateBinding reports why b cannot join p's bindings: an EPG or the
// contract it names is unknown, or its EPGs sit in different VRFs.
func (p *Policy) ValidateBinding(b Binding) error {
	from, ok := p.EPGs[b.From]
	if !ok {
		return fmt.Errorf("references unknown epg %d", b.From)
	}
	to, ok := p.EPGs[b.To]
	if !ok {
		return fmt.Errorf("references unknown epg %d", b.To)
	}
	if from.VRF != to.VRF {
		return fmt.Errorf("crosses VRFs (%d vs %d)", from.VRF, to.VRF)
	}
	if _, ok := p.Contracts[b.Contract]; !ok {
		return fmt.Errorf("references unknown contract %d", b.Contract)
	}
	return nil
}

// Validate reports the first entry whose port range is inverted or whose
// action is not Allow: a filter whitelists, and the default-deny tail of
// every switch list denies the rest.
func (f *Filter) Validate() error {
	for i, e := range f.Entries {
		if e.PortLo > e.PortHi {
			return fmt.Errorf("inverted port range %d-%d", e.PortLo, e.PortHi)
		}
		if e.Action != rule.Allow {
			return fmt.Errorf("entry %d whose action is %v, not allow", i, e.Action)
		}
	}
	return nil
}

// Pairs returns all distinct EPG pairs that appear in bindings, sorted.
func (p *Policy) Pairs() []EPGPair {
	set := make(map[EPGPair]struct{}, len(p.Bindings))
	for _, b := range p.Bindings {
		set[MakeEPGPair(b.From, b.To)] = struct{}{}
	}
	out := make([]EPGPair, 0, len(set))
	for pr := range set {
		out = append(out, pr)
	}
	slices.SortFunc(out, EPGPair.Compare)
	return out
}

// Stats summarizes object counts, mirroring the dataset description in the
// paper's §VI-A.
type Stats struct {
	VRFs      int `json:"vrfs"`
	EPGs      int `json:"epgs"`
	Endpoints int `json:"endpoints"`
	Contracts int `json:"contracts"`
	Filters   int `json:"filters"`
	Bindings  int `json:"bindings"`
	EPGPairs  int `json:"epgPairs"`
}

// Stats returns object counts for the policy.
func (p *Policy) Stats() Stats {
	return Stats{
		VRFs:      len(p.VRFs),
		EPGs:      len(p.EPGs),
		Endpoints: len(p.Endpoints),
		Contracts: len(p.Contracts),
		Filters:   len(p.Filters),
		Bindings:  len(p.Bindings),
		EPGPairs:  len(p.Pairs()),
	}
}

// FromJSON deserializes a policy previously produced by json.Marshal. A
// map files each object under its own ID, so a null object, or one whose
// id is not its key, is refused.
func FromJSON(data []byte) (*Policy, error) {
	p := New("")
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("decode policy: %w", err)
	}
	if err := cmp.Or(
		checkKeys("vrf", p.VRFs, func(v *VRF) object.ID { return v.ID }),
		checkKeys("epg", p.EPGs, func(e *EPG) object.ID { return e.ID }),
		checkKeys("endpoint", p.Endpoints, func(e *Endpoint) object.ID { return e.ID }),
		checkKeys("filter", p.Filters, func(f *Filter) object.ID { return f.ID }),
		checkKeys("contract", p.Contracts, func(c *Contract) object.ID { return c.ID }),
	); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkKeys reports the lowest-keyed object of the map that is null or
// not filed under its own ID.
func checkKeys[T any](kind string, m map[object.ID]*T, id func(*T) object.ID) error {
	for _, key := range sortedIDs(m) {
		obj := m[key]
		if obj == nil {
			return fmt.Errorf("decode policy: %s %d is null", kind, key)
		}
		if got := id(obj); got != key {
			return fmt.Errorf("decode policy: %s %d has id %d", kind, key, got)
		}
	}
	return nil
}

// Clone returns a deep copy of the policy. The fabric controller clones the
// policy so that later user edits do not mutate the deployed desired state.
func (p *Policy) Clone() *Policy {
	out := New(p.Name)
	for id, v := range p.VRFs {
		cp := *v
		out.VRFs[id] = &cp
	}
	for id, e := range p.EPGs {
		cp := *e
		out.EPGs[id] = &cp
	}
	for id, ep := range p.Endpoints {
		cp := *ep
		out.Endpoints[id] = &cp
	}
	for id, f := range p.Filters {
		cp := *f
		cp.Entries = append([]FilterEntry(nil), f.Entries...)
		out.Filters[id] = &cp
	}
	for id, c := range p.Contracts {
		cp := *c
		cp.Filters = append([]object.ID(nil), c.Filters...)
		out.Contracts[id] = &cp
	}
	out.Bindings = append([]Binding(nil), p.Bindings...)
	return out
}
