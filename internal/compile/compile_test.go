package compile

import (
	"reflect"
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

// threeTier reproduces the paper's Figure 1 example: Web(1)@S1, App(2)@S2,
// DB(3)@S3; Web-App on port 80, App-DB on ports 80 and 700.
func threeTier(t *testing.T) (*policy.Policy, *topo.Topology) {
	t.Helper()
	p := oracle.ThreeTier()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, topo.FromPolicy(p)
}

func TestCompileFigure2RuleCount(t *testing.T) {
	p, tp := threeTier(t)
	d, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2: S2 (hosting App) carries 6 allow rules + default deny:
	// Web↔App on 80 (2), App↔DB on 80 (2), App↔DB on 700 (2).
	s2 := d.RulesFor(2)
	if len(s2) != 7 {
		t.Fatalf("S2 rules = %d, want 7 (6 allows + default deny):\n%v", len(s2), s2)
	}
	allows := 0
	for _, r := range s2 {
		if r.Action == rule.Allow {
			allows++
		}
	}
	if allows != 6 {
		t.Errorf("S2 allow rules = %d, want 6", allows)
	}
	if !s2[len(s2)-1].IsDefaultDeny() {
		t.Error("last rule must be the default deny")
	}

	// S1 hosts only Web: Web↔App on 80 (2) + deny.
	if s1 := d.RulesFor(1); len(s1) != 3 {
		t.Errorf("S1 rules = %d, want 3:\n%v", len(s1), s1)
	}
	// S3 hosts only DB: App↔DB on 80+700 (4) + deny.
	if s3 := d.RulesFor(3); len(s3) != 5 {
		t.Errorf("S3 rules = %d, want 5:\n%v", len(s3), s3)
	}
}

func TestCompileProvenance(t *testing.T) {
	p, tp := threeTier(t)
	d, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.RulesFor(2) {
		if r.IsDefaultDeny() {
			continue
		}
		want := object.NewSet(
			object.VRF(101),
			object.EPG(r.Match.SrcEPG), object.EPG(r.Match.DstEPG),
		)
		got := object.NewSet(r.Provenance...)
		if got.Len() != 5 {
			t.Errorf("rule %v provenance size = %d, want 5 (vrf, 2 epgs, contract, filter)", r, got.Len())
		}
		for ref := range want {
			if !got.Has(ref) {
				t.Errorf("rule %v provenance missing %v", r, ref)
			}
		}
		// Port 700 rules come from filter 700 / contract 202.
		if r.Match.PortLo == 700 {
			if !got.Has(object.Filter(700)) || !got.Has(object.Contract(202)) {
				t.Errorf("port-700 rule provenance wrong: %v", r.Provenance)
			}
		}
	}
	// Provenance index must cover every non-deny rule key.
	for sw, rules := range d.BySwitch {
		for _, r := range rules {
			if r.IsDefaultDeny() {
				continue
			}
			if _, ok := d.Provenance[r.Key()]; !ok {
				t.Errorf("switch %d rule %v missing from provenance index", sw, r)
			}
		}
	}
}

func TestCompileFootprintKeys(t *testing.T) {
	p, tp := threeTier(t)
	d, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Web-App pair (1-2) deployed on S1 and S2; App-DB (2-3) on S2 and S3.
	fp := d.Footprint
	var labels []string
	for _, sp := range fp.Pairs {
		labels = append(labels, sp.String())
	}
	want := []string{"S1:1-2", "S2:1-2", "S2:2-3", "S3:2-3"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("footprint = %v, want %v", labels, want)
	}
	// The App-DB pair on S2 relies on 4 rule keys (2 ports × 2 dirs).
	keys := fp.Keys[2]
	if len(keys) != 4 {
		t.Errorf("App-DB keys on S2 = %d, want 4", len(keys))
	}
	// A pair's keys are a fact about the pair: its switches share one list.
	if onS3 := fp.Keys[3]; len(onS3) != len(keys) || &onS3[0] != &keys[0] {
		t.Error("S2 and S3 hold separate key lists for the App-DB pair, want one shared list")
	}
}

func TestCompileIntraEPGBinding(t *testing.T) {
	p := policy.New("intra")
	p.AddVRF(policy.VRF{ID: 1})
	p.AddEPG(policy.EPG{ID: 10, VRF: 1})
	p.AddEndpoint(policy.Endpoint{ID: 1, EPG: 10, Switch: 1})
	p.AddFilter(policy.Filter{ID: 5, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 22)}})
	p.AddContract(policy.Contract{ID: 7, Filters: []object.ID{5}})
	p.Bind(10, 10, 7)
	d, err := Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	// Intra-EPG: one rule (not two mirrored) + default deny.
	if got := len(d.RulesFor(1)); got != 2 {
		t.Errorf("intra-EPG rules = %d, want 2", got)
	}
}

func TestCompileDedupesSharedRules(t *testing.T) {
	p, tp := threeTier(t)
	// A second contract allowing the same port 80 between Web and App
	// produces duplicate keys that must dedupe.
	p.AddContract(policy.Contract{ID: 203, Filters: []object.ID{80}})
	p.Bind(1, 2, 203)
	d, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.RulesFor(1)); got != 3 {
		t.Errorf("S1 rules after duplicate binding = %d, want 3 (dedupe)", got)
	}
}

func TestCompileRejectsInvalidPolicy(t *testing.T) {
	p, tp := threeTier(t)
	p.Bind(1, 999, 201)
	if _, err := Compile(p, tp); err == nil {
		t.Error("Compile should reject invalid policies")
	}
}

func TestCompileSkipsUnattachedPairs(t *testing.T) {
	p, tp := threeTier(t)
	// EPG with no endpoints: binding to it lands nowhere beyond the
	// partner's switches.
	p.AddEPG(policy.EPG{ID: 4, Name: "ghost", VRF: 101})
	p.AddContract(policy.Contract{ID: 204, Filters: []object.ID{80}})
	p.Bind(4, 4, 204) // fully unattached pair
	d, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range d.Footprint.Pairs {
		if sp.Pair == policy.MakeEPGPair(4, 4) {
			t.Error("unattached pair must not appear in deployment")
		}
	}
}

func TestSwitchPairOrdering(t *testing.T) {
	a := SwitchPair{Switch: 1, Pair: policy.MakeEPGPair(1, 2)}
	b := SwitchPair{Switch: 1, Pair: policy.MakeEPGPair(1, 3)}
	c := SwitchPair{Switch: 2, Pair: policy.MakeEPGPair(1, 2)}
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(a) <= 0 {
		t.Error("SwitchPair ordering broken")
	}
	if a.String() != "S1:1-2" {
		t.Errorf("String = %q", a.String())
	}
}
