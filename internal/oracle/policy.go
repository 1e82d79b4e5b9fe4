package oracle

import (
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
)

// ThreeTier builds the paper's running example (Figure 1): Web (EPG 1),
// App (2) and DB (3) in VRF 101, one endpoint each on switches 1, 2 and 3;
// Web-App is contract 201 over filter 80 (port 80), App-DB contract 202
// over filters 80 and 700 (port 700).
func ThreeTier() *policy.Policy {
	p := policy.New("three-tier")
	p.AddVRF(policy.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(policy.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(policy.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(policy.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(policy.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(policy.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(policy.Filter{ID: 80, Name: "port-80", Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddFilter(policy.Filter{ID: 700, Name: "port-700", Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 700)}})
	p.AddContract(policy.Contract{ID: 201, Name: "Web-App", Filters: []object.ID{80}})
	p.AddContract(policy.Contract{ID: 202, Name: "App-DB", Filters: []object.ID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	return p
}
