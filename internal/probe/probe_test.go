package probe

import (
	"math/rand"
	"reflect"
	"slices"
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
// each switch's missing rules and the probes sent in all.
func probeAll(t testing.TB, f *fabric.Fabric, switches []object.ID) (map[object.ID][]rule.Rule, int) {
	t.Helper()
	out := make(map[object.ID][]rule.Rule)
	sent := 0
	for _, sw := range switches {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		missing, n := Switch(f.Deployment().RulesFor(sw), s.TCAM().Rules())
		if len(missing) > 0 {
			out[sw] = missing
		}
		sent += n
	}
	return out, sent
}

func TestProbeCleanFabricNoViolations(t *testing.T) {
	f := threeTierFabric(t)
	missing, sent := probeAll(t, f, threeTierSwitches)
	if len(missing) != 0 {
		t.Fatalf("clean fabric must probe clean, got %v", missing)
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
	missing, _ := probeAll(t, f, threeTierSwitches)
	if len(missing) == 0 {
		t.Fatal("probes must detect the missing port-700 rules")
	}
	n := 0
	for sw, rules := range missing {
		for _, r := range rules {
			if r.Match.PortLo != 700 || r.Action != rule.Allow || !r.HasProvenance(object.Filter(700)) {
				t.Errorf("switch %d: unexpected missing rule %v (only port 700 is broken)", sw, r)
			}
		}
		n += len(rules)
	}
	// Port 700 is broken on S2 and S3, both directions: 4 probes fail.
	if _, s1 := missing[1]; s1 || n != 4 {
		t.Errorf("missing = %v, want 4 rules on S2 and S3", missing)
	}
}

func TestProbeDeterministicOrder(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(80), 1.0); err != nil {
		t.Fatal(err)
	}
	a, _ := probeAll(t, f, threeTierSwitches)
	b, _ := probeAll(t, f, threeTierSwitches)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("probe runs differ: %v vs %v", a, b)
	}
	// Each switch's missing rules ascend by pair, then rule.Compare.
	for sw, rules := range a {
		if !slices.IsSortedFunc(rules, missingOrder) {
			t.Errorf("switch %d: missing rules out of order: %v", sw, rules)
		}
	}
}

// TestMissingRulesDedupes pins which rule of a key Switch keeps, and the
// order it returns them in, on a list no rule of which is deployed: two
// allow rules share a key at priorities 20 and 10, two others share one
// at priority 10 with different provenance, and their pairs interleave.
// The expected list pins the order and which rule of each key is kept.
func TestMissingRulesDedupes(t *testing.T) {
	allow := func(src, dst object.ID, port uint16, prio int, filter object.ID) rule.Rule {
		return rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: src, DstEPG: dst, Proto: rule.ProtoTCP, PortLo: port, PortHi: port},
			Action: rule.Allow, Priority: prio, Provenance: []object.Ref{object.Filter(filter)}}
	}
	logical := []rule.Rule{allow(5, 4, 443, 10, 3), allow(2, 3, 80, 10, 2), allow(5, 4, 443, 10, 4),
		allow(2, 3, 81, 10, 5), allow(2, 3, 80, 20, 1), allow(5, 4, 22, 30, 6), rule.DefaultDeny()}
	missing, sent := Switch(logical, []rule.Rule{rule.DefaultDeny()})
	want := []rule.Rule{allow(2, 3, 80, 20, 1), allow(2, 3, 81, 10, 5), allow(5, 4, 22, 30, 6), allow(5, 4, 443, 10, 3)}
	if sent != 6 || !reflect.DeepEqual(missing, want) {
		t.Errorf("Switch = %v after %d probes, want %v after 6", missing, sent, want)
	}
}

func TestProbeLocalizationEndToEnd(t *testing.T) {
	// Probed missing rules must drive SCOUT to the same culprit the
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
		missing, _ := Switch(d.RulesFor(sw), s.TCAM().Rules())
		risk.AugmentControllerModelPatch(m, sw, missing, d.Provenance).Apply(m)
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
	missing, _ := Switch(d.RulesFor(2), s.TCAM().Rules())
	own := risk.NewModel("switch-2", d.OnSwitch(2))
	m := risk.MarkSwitch(own, 2, missing, d.Provenance).View()
	if m.NumFailedEdges() == 0 {
		t.Fatal("switch-model augmentation marked nothing")
	}
	appDB, _ := own.ElementOf(compile.SwitchPair{Switch: 2, Pair: policy.MakeEPGPair(2, 3)})
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
		missing, _ := probeAll(t, f, tp.Switches())
		// Every missing rule must have a removed rule key, and each
		// (switch, removed key) the deployment puts there must be flagged.
		type swKey struct {
			sw  object.ID
			key rule.Key
		}
		flagged := make(map[swKey]struct{})
		for sw, rules := range missing {
			for _, r := range rules {
				if _, ok := removed[r.Key()]; !ok {
					return false
				}
				flagged[swKey{sw, r.Key()}] = struct{}{}
			}
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
				if _, ok := flagged[swKey{sw, r.Key()}]; !ok {
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
	want, wantSent := Switch(logical, s.TCAM().Rules())
	if len(want) == 0 {
		t.Fatal("switch 2 must miss rules after the filter fault")
	}
	const goroutines = 8
	got := make([][]rule.Rule, goroutines)
	sent := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], sent[g] = Switch(logical, s.TCAM().Rules())
		}(g)
	}
	wg.Wait()
	for g := range got {
		if sent[g] != wantSent || !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d: %d probes, missing %v; want %d, %v", g, sent[g], got[g], wantSent, want)
		}
	}
}
