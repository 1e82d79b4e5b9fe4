package probe

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scout/internal/fabric"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

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

func dataplanes(t testing.TB, f *fabric.Fabric) map[object.ID]Classifier {
	t.Helper()
	out := make(map[object.ID]Classifier)
	for _, sw := range f.Topology().Switches() {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		out[sw] = s.TCAM()
	}
	return out
}

// perPacketOnly strips the batch surface off a Classifier, forcing the
// prober down the per-packet fallback path.
type perPacketOnly struct{ c Classifier }

func (p perPacketOnly) Classify(vrf, src, dst object.ID, proto rule.Protocol, port uint16) (rule.Action, bool) {
	return p.c.Classify(vrf, src, dst, proto, port)
}

// TestBatchAndFallbackIdentical pins the BatchClassifier contract: a
// dataplane that only classifies per packet yields byte-for-byte the
// same violations as the batched pass over the same TCAM — only the
// counters differ (batch passes vs fallback probes).
func TestBatchAndFallbackIdentical(t *testing.T) {
	f := threeTierFabric(t)
	d := f.Deployment()
	// Break a switch so violations exist on both paths.
	s, err := f.Switch(2)
	if err != nil {
		t.Fatal(err)
	}
	rules := s.TCAM().Rules()
	if len(rules) == 0 || !s.TCAM().Remove(rules[0].Key()) {
		t.Fatal("failed to break switch 2")
	}

	batched := New(d)
	fallback := New(d)
	dps := dataplanes(t, f)
	wrapped := make(map[object.ID]Classifier, len(dps))
	for sw, c := range dps {
		wrapped[sw] = perPacketOnly{c: c}
	}

	a := batched.ProbeAll(dps)
	b := fallback.ProbeAll(wrapped)
	if len(a) != len(b) {
		t.Fatalf("batch found %d violations, fallback %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() || !a[i].Rule.Equal(b[i].Rule) {
			t.Errorf("violation %d differs: batch %v, fallback %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("expected violations after breaking switch 2")
	}

	bs := batched.Stats()
	if bs.BatchPasses == 0 || bs.BatchedPackets == 0 || bs.FallbackProbes != 0 {
		t.Errorf("batched prober counters = %+v, want batch passes only", bs)
	}
	fs := fallback.Stats()
	if fs.FallbackProbes == 0 || fs.BatchPasses != 0 || fs.BatchedPackets != 0 {
		t.Errorf("fallback prober counters = %+v, want fallback probes only", fs)
	}
	if bs.BatchedPackets != fs.FallbackProbes {
		t.Errorf("batch resolved %d packets, fallback %d — same probes must flow",
			bs.BatchedPackets, fs.FallbackProbes)
	}
	if bs.MemoHits != fs.MemoHits || bs.MemoMisses != fs.MemoMisses {
		t.Errorf("memo accounting differs: batch %+v, fallback %+v", bs, fs)
	}
}

func TestProbeCleanFabricNoViolations(t *testing.T) {
	f := threeTierFabric(t)
	p := New(f.Deployment())
	if v := p.ProbeAll(dataplanes(t, f)); len(v) != 0 {
		t.Fatalf("clean fabric must probe clean, got %v", v)
	}
}

func TestProbeDetectsMissingRules(t *testing.T) {
	f := threeTierFabric(t)
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err != nil {
		t.Fatal(err)
	}
	p := New(f.Deployment())
	violations := p.ProbeAll(dataplanes(t, f))
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
	p := New(f.Deployment())
	a := p.ProbeAll(dataplanes(t, f))
	b := p.ProbeAll(dataplanes(t, f))
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
	p := New(d)
	planes := dataplanes(t, f)

	m := risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	marked := 0
	for _, sw := range f.Topology().Switches() {
		marked += risk.AugmentControllerModel(m, sw, MissingRules(p.ProbeSwitch(sw, planes[sw])), d.Provenance)
	}
	if marked == 0 {
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
	violations := New(d).ProbeSwitch(2, dataplanes(t, f)[2])
	m := risk.BuildSwitchModel(d, 2)
	if marked := risk.AugmentSwitchModel(m, MissingRules(violations), d.Provenance); marked == 0 {
		t.Fatal("switch-model augmentation marked nothing")
	}
	appDB, _ := m.ElementByLabel("2-3")
	if !m.IsObservation(appDB) {
		t.Error("App-DB must be an observation on S2")
	}
}

// TestProbeAgreesWithCheckerOnGeneratedWorkloads: on the generated
// (overlap-free) workloads, the set of pairs the prober flags equals the
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
		dps := make(map[object.ID]Classifier)
		for _, sw := range tp.Switches() {
			s, _ := f.Switch(sw)
			dps[sw] = s.TCAM()
		}
		violations := New(d).ProbeAll(dps)
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

// TestProberPacketMemo covers the per-rule-key packet memo: switches
// sharing EPG pairs (here S2 shares both the Web-App and App-DB rules
// with S1 and S3) must reuse the packets the first switch synthesized,
// and the memoized prober must report exactly what a fresh one does.
func TestProberPacketMemo(t *testing.T) {
	f := threeTierFabric(t)
	d := f.Deployment()

	shared := New(d)
	var sharedViolations []Violation
	for _, sw := range f.Topology().Switches() {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		sharedViolations = append(sharedViolations, shared.ProbeSwitch(sw, s.TCAM())...)
	}
	hits, misses := shared.MemoStats()
	if hits == 0 {
		t.Error("no memo hits across switches sharing EPG pairs")
	}
	if misses == 0 {
		t.Error("memo recorded no synthesis at all")
	}

	var freshViolations []Violation
	for _, sw := range f.Topology().Switches() {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		freshViolations = append(freshViolations, New(d).ProbeSwitch(sw, s.TCAM())...)
	}
	if len(sharedViolations) != len(freshViolations) {
		t.Fatalf("shared prober found %d violations, fresh probers %d",
			len(sharedViolations), len(freshViolations))
	}
	for i := range sharedViolations {
		if sharedViolations[i].String() != freshViolations[i].String() {
			t.Errorf("violation %d differs: %s vs %s", i, sharedViolations[i], freshViolations[i])
		}
	}
}

// TestProbeAllMatchesPerSwitch pins the packet-outer batched ProbeAll
// against the per-switch form it replaced: on a faulty generated fabric,
// the batched pass must report exactly the concatenation of every
// switch's sorted ProbeSwitch output, while synthesizing each distinct
// packet once.
func TestProbeAllMatchesPerSwitch(t *testing.T) {
	pol, tp, err := workload.Generate(workload.TestbedSpec(), 23)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(pol, tp, fabric.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	// Knock out rules on two switches so violations span switches.
	for _, sw := range tp.Switches()[:2] {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		rules := s.TCAM().Rules()
		for _, r := range rules {
			if r.Action == rule.Allow {
				s.TCAM().Remove(r.Key())
				break
			}
		}
	}
	dps := dataplanes(t, f)

	var want []Violation
	ref := New(f.Deployment())
	for _, sw := range f.Topology().Switches() {
		want = append(want, ref.ProbeSwitch(sw, dps[sw])...)
	}

	batched := New(f.Deployment())
	got := batched.ProbeAll(dps)
	if len(got) == 0 {
		t.Fatal("fault injection produced no violations; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("ProbeAll returned %d violations, per-switch form %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() || !got[i].Rule.Equal(want[i].Rule) {
			t.Errorf("violation %d differs:\nbatched:    %s\nper-switch: %s", i, got[i], want[i])
		}
	}

	// Batched synthesis: one miss per distinct packet, the rest hits.
	hits, misses := batched.MemoStats()
	refHits, refMisses := ref.MemoStats()
	if misses != refMisses {
		t.Errorf("batched pass synthesized %d packets, per-switch %d", misses, refMisses)
	}
	if hits != refHits {
		t.Errorf("batched pass recorded %d memo hits, per-switch %d", hits, refHits)
	}
}

// TestProbeAllSkipsMissingDataplanes: switches without a classification
// surface contribute no probes (matching the per-switch form, which was
// never invoked for them).
func TestProbeAllSkipsMissingDataplanes(t *testing.T) {
	f := threeTierFabric(t)
	dps := dataplanes(t, f)
	delete(dps, f.Topology().Switches()[0])
	for _, v := range New(f.Deployment()).ProbeAll(dps) {
		if _, ok := dps[v.Switch]; !ok {
			t.Errorf("violation reported for a switch without a dataplane: %s", v)
		}
	}
}
