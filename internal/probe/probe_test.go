package probe

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"scout/internal/compile"
	"scout/internal/fabric"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

// threeTierSwitches are the switches of threeTierFabric, ascending.
var threeTierSwitches = []object.ID{1, 2, 3}

// threeTierFabric builds and deploys the Figure 1 example fabric.
func threeTierFabric(t testing.TB) *fabric.Fabric {
	t.Helper()
	p := policy.New("three-tier")
	p.AddVRF(policy.VRF{ID: 101})
	p.AddEPG(policy.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(policy.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(policy.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	p.AddEndpoint(policy.Endpoint{ID: 13, EPG: 3, Switch: 3})
	p.AddFilter(policy.Filter{ID: 80, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddFilter(policy.Filter{ID: 700, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 700)}})
	p.AddContract(policy.Contract{ID: 201, Filters: []object.ID{80}})
	p.AddContract(policy.Contract{ID: 202, Filters: []object.ID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	f, err := fabric.New(p, topo.FromPolicy(p), fabric.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	return f
}

// probeAll probes the given switches of the fabric in order and returns
// the concatenated violations and the probes sent.
func probeAll(t testing.TB, f *fabric.Fabric, switches []object.ID) ([]Violation, int) {
	t.Helper()
	var out []Violation
	sent := 0
	for _, sw := range switches {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		v, n := Switch(sw, f.Deployment().RulesFor(sw), s.TCAM())
		out = append(out, v...)
		sent += n
	}
	return out, sent
}

func TestProbeCleanFabricNoViolations(t *testing.T) {
	f := threeTierFabric(t)
	v, sent := probeAll(t, f, threeTierSwitches)
	if len(v) != 0 {
		t.Fatalf("clean fabric must probe clean, got %v", v)
	}
	// One probe per allow rule between concrete EPGs: Web-App on S1 and S2
	// (port 80), App-DB on S2 and S3 (ports 80 and 700), both directions.
	if sent != 12 {
		t.Errorf("probes sent = %d, want 12", sent)
	}
}

func TestProbeDetectsMissingRules(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err != nil {
		t.Fatal(err)
	}
	violations, _ := probeAll(t, f, threeTierSwitches)
	if len(violations) == 0 {
		t.Fatal("probes must detect the missing port-700 rules")
	}
	for _, v := range violations {
		if v.Packet.Port != 700 {
			t.Errorf("unexpected violation %v (only port 700 is broken)", v)
		}
		if v.Expected != rule.Allow || v.Got == rule.Allow {
			t.Errorf("violation %v: expected allow denied", v)
		}
		if !strings.Contains(v.String(), "700") {
			t.Errorf("String() = %q", v.String())
		}
	}
	// Port 700 is broken on S2 and S3, both directions: 4 probes fail.
	if len(violations) != 4 {
		t.Errorf("violations = %d, want 4", len(violations))
	}
}

func TestProbeDeterministicOrder(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(80), 1.0); err != nil {
		t.Fatal(err)
	}
	a, _ := probeAll(t, f, threeTierSwitches)
	b, _ := probeAll(t, f, threeTierSwitches)
	if len(a) != len(b) {
		t.Fatal("probe runs differ in length")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("probe order nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Sorted by switch.
	for i := 1; i < len(a); i++ {
		if a[i].Switch < a[i-1].Switch {
			t.Fatal("violations not sorted by switch")
		}
	}
}

func TestMissingRulesDedupes(t *testing.T) {
	r := rule.Rule{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80},
		Action: rule.Allow,
	}
	vs := []Violation{
		{Switch: 1, Rule: r},
		{Switch: 2, Rule: r}, // same rule key on another switch
	}
	if got := MissingRules(vs); len(got) != 1 {
		t.Errorf("MissingRules = %d, want 1 after dedupe", len(got))
	}
}

func TestProbeLocalizationEndToEnd(t *testing.T) {
	// Probe violations must drive SCOUT to the same culprit the
	// equivalence checker would find.
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err != nil {
		t.Fatal(err)
	}
	d := f.Deployment()

	ctrl, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
	m := risk.NewOverlay(ctrl)
	for _, sw := range threeTierSwitches {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		violations, _ := Switch(sw, d.RulesFor(sw), s.TCAM())
		risk.AugmentControllerModelPatch(m, sw, MissingRules(violations), d.Provenance).Apply(m)
	}
	if m.NumFailedEdges() == 0 {
		t.Fatal("augmentation marked nothing")
	}
	res := localize.Scout(m, localize.NoChanges{})
	found := false
	for _, ref := range res.Hypothesis {
		if ref == object.Filter(700) {
			found = true
		}
	}
	if !found {
		t.Errorf("hypothesis %v must contain filter:700", res.Hypothesis)
	}
}

func TestProbeSwitchModelAugmentation(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err != nil {
		t.Fatal(err)
	}
	d := f.Deployment()
	s, err := f.Switch(2)
	if err != nil {
		t.Fatal(err)
	}
	violations, _ := Switch(2, d.RulesFor(2), s.TCAM())
	m := risk.NewOverlay(risk.NewModel("switch-2", d.OnSwitch(2)))
	if risk.AugmentSwitchModel(m, 2, MissingRules(violations), d.Provenance); m.NumFailedEdges() == 0 {
		t.Fatal("switch-model augmentation marked nothing")
	}
	appDB, _ := m.ElementOf(compile.SwitchPair{Switch: 2, Pair: policy.MakeEPGPair(2, 3)})
	if !slices.Contains(m.FailureSignature(), appDB) {
		t.Error("App-DB must be an observation on S2")
	}
}

// TestProbeAgreesWithCheckerOnGeneratedWorkloads: on the generated
// (overlap-free) workloads, the set of pairs the probes flag equals the
// set of pairs with missing rules.
func TestProbeAgreesWithCheckerOnGeneratedWorkloads(t *testing.T) {
	spec := workload.TestbedSpec()
	fn := func(seed int64) bool {
		pol, tp, err := workload.Generate(spec, seed)
		if err != nil {
			return false
		}
		f, err := fabric.New(pol, tp, fabric.Options{Seed: seed})
		if err != nil {
			return false
		}
		if err := f.Deploy(); err != nil {
			return false
		}
		d := f.Deployment()
		// Remove a random sample of rules.
		rng := rand.New(rand.NewSource(seed))
		removed := make(map[rule.Key]struct{})
		for _, sw := range tp.Switches() {
			s, err := f.Switch(sw)
			if err != nil {
				return false
			}
			for _, r := range s.TCAM().EvictRandom(3, rng) {
				removed[r.Key()] = struct{}{}
			}
		}
		violations, _ := probeAll(t, f, tp.Switches())
		// Every violation must correspond to a removed rule key.
		for _, v := range violations {
			if _, ok := removed[v.Rule.Key()]; !ok {
				return false
			}
		}
		// Every removed allow rule still deployed somewhere may or may not
		// violate per switch, but each (switch, removed key) present in the
		// deployment must be flagged.
		flagged := make(map[[2]interface{}]struct{})
		for _, v := range violations {
			flagged[[2]interface{}{v.Switch, v.Rule.Key()}] = struct{}{}
		}
		for _, sw := range tp.Switches() {
			s, _ := f.Switch(sw)
			keys := s.TCAM().Keys()
			for _, r := range d.RulesFor(sw) {
				if r.Action != rule.Allow {
					continue
				}
				if _, present := keys[r.Key()]; present {
					continue
				}
				if _, ok := flagged[[2]interface{}{sw, r.Key()}]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestProbeSwitchConcurrent: a probe round keeps nothing, so there is
// nothing to lock — eight goroutines probing the same broken switch (run
// under -race) each get exactly the serial answer.
func TestProbeSwitchConcurrent(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err != nil {
		t.Fatal(err)
	}
	s, err := f.Switch(2)
	if err != nil {
		t.Fatal(err)
	}
	logical := f.Deployment().RulesFor(2)
	want, wantSent := Switch(2, logical, s.TCAM())
	if len(want) == 0 {
		t.Fatal("switch 2 must violate after the filter fault")
	}
	const goroutines = 8
	got := make([][]Violation, goroutines)
	sent := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], sent[g] = Switch(2, logical, s.TCAM())
		}(g)
	}
	wg.Wait()
	for g := range got {
		if sent[g] != wantSent || !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d: %d probes, violations %v; want %d, %v", g, sent[g], got[g], wantSent, want)
		}
	}
}
