package policy

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// validPolicy builds a small coherent policy used across tests.
func validPolicy() *Policy {
	p := New("test")
	p.AddVRF(VRF{ID: 101, Name: "prod"})
	p.AddEPG(EPG{ID: 1, Name: "web", VRF: 101})
	p.AddEPG(EPG{ID: 2, Name: "app", VRF: 101})
	p.AddEPG(EPG{ID: 3, Name: "db", VRF: 101})
	p.AddEndpoint(Endpoint{ID: 11, Name: "ep1", EPG: 1, Switch: 1})
	p.AddEndpoint(Endpoint{ID: 12, Name: "ep2", EPG: 2, Switch: 2})
	p.AddFilter(Filter{ID: 80, Name: "http", Entries: []FilterEntry{PortEntry(rule.ProtoTCP, 80)}})
	p.AddContract(Contract{ID: 201, Name: "web-app", Filters: []object.ID{80}})
	p.Bind(1, 2, 201)
	return p
}

func TestValidateOK(t *testing.T) {
	if err := validPolicy().Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Policy)
		wantErr string
	}{
		{
			name:    "epg-unknown-vrf",
			mutate:  func(p *Policy) { p.AddEPG(EPG{ID: 9, VRF: 999}) },
			wantErr: "unknown vrf",
		},
		{
			name:    "endpoint-unknown-epg",
			mutate:  func(p *Policy) { p.AddEndpoint(Endpoint{ID: 99, EPG: 999, Switch: 1}) },
			wantErr: "unknown epg",
		},
		{
			name:    "contract-unknown-filter",
			mutate:  func(p *Policy) { p.AddContract(Contract{ID: 299, Filters: []object.ID{999}}) },
			wantErr: "unknown filter",
		},
		{
			name:    "binding-unknown-from",
			mutate:  func(p *Policy) { p.Bind(999, 2, 201) },
			wantErr: "unknown epg",
		},
		{
			name:    "binding-unknown-to",
			mutate:  func(p *Policy) { p.Bind(1, 999, 201) },
			wantErr: "unknown epg",
		},
		{
			name:    "binding-unknown-contract",
			mutate:  func(p *Policy) { p.Bind(1, 2, 999) },
			wantErr: "unknown contract",
		},
		{
			name: "binding-crosses-vrfs",
			mutate: func(p *Policy) {
				p.AddVRF(VRF{ID: 102})
				p.AddEPG(EPG{ID: 9, VRF: 102})
				p.Bind(1, 9, 201)
			},
			wantErr: "crosses VRFs",
		},
		{
			name: "inverted-port-range",
			mutate: func(p *Policy) {
				p.AddFilter(Filter{ID: 81, Entries: []FilterEntry{{Proto: rule.ProtoTCP, PortLo: 90, PortHi: 80, Action: rule.Allow}}})
			},
			wantErr: "inverted port range",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validPolicy()
			tt.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate should fail")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q should contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestMakeEPGPairCanonical(t *testing.T) {
	if MakeEPGPair(5, 3) != MakeEPGPair(3, 5) {
		t.Error("pair must be order-insensitive")
	}
	p := MakeEPGPair(5, 3)
	if p.A != 3 || p.B != 5 {
		t.Errorf("canonical order: got %v", p)
	}
	if p.String() != "3-5" {
		t.Errorf("String = %q, want 3-5", p.String())
	}
}

func TestPairsDedupesAndSorts(t *testing.T) {
	p := validPolicy()
	p.AddContract(Contract{ID: 202, Name: "c2", Filters: []object.ID{80}})
	p.Bind(2, 1, 202) // same pair, other direction, other contract
	p.Bind(2, 3, 201)
	pairs := p.Pairs()
	want := []EPGPair{{A: 1, B: 2}, {A: 2, B: 3}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("Pairs = %v, want %v", pairs, want)
	}
}

func TestStats(t *testing.T) {
	s := validPolicy().Stats()
	want := Stats{VRFs: 1, EPGs: 3, Endpoints: 2, Contracts: 1, Filters: 1, Bindings: 1, EPGPairs: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := validPolicy()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte(`{bad json`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	// Structurally valid JSON but semantically broken policy.
	p := validPolicy()
	p.EPGs[1].VRF = 999
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON(data); err == nil {
		t.Error("invalid policy should fail validation on load")
	}
	// A null object, or one filed under another object's ID, is refused
	// with its kind and key (Validate used to dereference the null).
	for _, tc := range []struct{ json, want string }{
		{`{"epgs":{"5":null}}`, "decode policy: epg 5 is null"},
		{`{"vrfs":{"7":null}}`, "decode policy: vrf 7 is null"},
		{`{"filters":{"9":null}}`, "decode policy: filter 9 is null"},
		{`{"endpoints":{"2":null}}`, "decode policy: endpoint 2 is null"},
		{`{"contracts":{"3":{"id":4}}}`, "decode policy: contract 3 has id 4"},
	} {
		if _, err := FromJSON([]byte(tc.json)); err == nil || err.Error() != tc.want {
			t.Errorf("FromJSON(%s) = %v, want %q", tc.json, err, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := validPolicy()
	c := p.Clone()
	c.AddEPG(EPG{ID: 50, VRF: 101})
	c.Filters[80].Entries[0].PortLo = 9999
	c.Contracts[201].Filters = append(c.Contracts[201].Filters, 80)
	c.Bind(1, 2, 201)

	if _, leaked := p.EPGs[50]; leaked {
		t.Error("clone shares EPG map")
	}
	if p.Filters[80].Entries[0].PortLo == 9999 {
		t.Error("clone shares filter entries")
	}
	if len(p.Contracts[201].Filters) != 1 {
		t.Error("clone shares contract filter slice")
	}
	if len(p.Bindings) != 1 {
		t.Error("clone shares bindings")
	}
}

func TestAddersCopyTheirArguments(t *testing.T) {
	p := New("copy")
	entries := []FilterEntry{PortEntry(rule.ProtoTCP, 80)}
	p.AddFilter(Filter{ID: 1, Entries: entries})
	entries[0].PortLo = 1234
	if p.Filters[1].Entries[0].PortLo == 1234 {
		t.Error("AddFilter must copy entries at the boundary")
	}

	filters := []object.ID{1}
	p.AddContract(Contract{ID: 2, Filters: filters})
	filters[0] = 99
	if p.Contracts[2].Filters[0] == 99 {
		t.Error("AddContract must copy filter list at the boundary")
	}
}

func TestPortEntry(t *testing.T) {
	e := PortEntry(rule.ProtoUDP, 53)
	if e.Proto != rule.ProtoUDP || e.PortLo != 53 || e.PortHi != 53 || e.Action != rule.Allow {
		t.Errorf("PortEntry = %+v", e)
	}
}

func TestEPGPairLess(t *testing.T) {
	pairs := []EPGPair{{A: 2, B: 3}, {A: 1, B: 5}, {A: 1, B: 2}}
	if !pairs[2].Less(pairs[1]) || !pairs[1].Less(pairs[0]) {
		t.Error("lexicographic order broken")
	}
	if pairs[0].Less(pairs[0]) {
		t.Error("irreflexive")
	}
}
