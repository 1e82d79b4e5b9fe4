package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// TestSmallFabricSpec pins the properties the dedicated small-deployment
// spec exists for: it validates, it is denser per switch than the
// testbed by an order of magnitude, and a clean deployment fits the
// default leaf TCAM with headroom (so baselines start consistent,
// unlike linearly shrunken production specs).
func TestSmallFabricSpec(t *testing.T) {
	spec := SmallFabricSpec()
	for _, seed := range []int64{1, 2, 42} {
		p, tp, err := Generate(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tp.NumSwitches() != spec.Switches {
			t.Fatalf("seed %d: %d switches, want %d", seed, tp.NumSwitches(), spec.Switches)
		}
		d, err := compile.Compile(p, tp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pairsPerSwitch := float64(p.Stats().EPGPairs) / float64(spec.Switches)
		if pairsPerSwitch < 80 {
			t.Errorf("seed %d: %.0f EPG pairs per switch, want production-like density (>= 80)", seed, pairsPerSwitch)
		}
		for _, sw := range tp.Switches() {
			if n := len(d.RulesFor(sw)); n > tcam.DefaultCapacity*4/5 {
				t.Errorf("seed %d: switch %d compiles to %d rules, wants headroom under the %d-entry TCAM",
					seed, sw, n, tcam.DefaultCapacity)
			}
		}
	}
}

// smallSpec is a reduced production-like spec keeping tests fast.
func smallSpec() Spec {
	s := ProductionSpec()
	s.EPGs = 120
	s.Contracts = 80
	s.Filters = 40
	s.TargetPairs = 1200
	s.Switches = 10
	return s
}

func TestGenerateValidPolicy(t *testing.T) {
	for _, spec := range []Spec{smallSpec(), TestbedSpec()} {
		p, tp, err := Generate(spec, 42)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: generated policy invalid: %v", spec.Name, err)
		}
		if err := tp.Validate(p); err != nil {
			t.Fatalf("%s: topology invalid: %v", spec.Name, err)
		}
		st := p.Stats()
		if st.VRFs != spec.VRFs || st.EPGs != spec.EPGs || st.Contracts != spec.Contracts || st.Filters != spec.Filters {
			t.Errorf("%s: stats %+v do not match spec", spec.Name, st)
		}
		if tp.NumSwitches() != spec.Switches {
			t.Errorf("%s: switches = %d, want %d", spec.Name, tp.NumSwitches(), spec.Switches)
		}
		// Pair count should be in the target's ballpark (duplicates are
		// dropped, so it can land under).
		if st.EPGPairs < spec.TargetPairs/3 {
			t.Errorf("%s: pairs = %d, want around %d", spec.Name, st.EPGPairs, spec.TargetPairs)
		}
		// faults.go's doc and Generate's filter comment rest on this: no
		// two allow rules of one (VRF, src, dst, proto) overlap in port, so
		// no rule covers one a fault removes.
		d, err := compile.Compile(p, tp)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for sw, rules := range d.BySwitch {
			ranges := map[rule.Match][]rule.Match{}
			for _, r := range rules {
				if r.Action != rule.Allow {
					continue
				}
				key := r.Match
				key.PortLo, key.PortHi = 0, 0
				for _, m := range ranges[key] {
					if r.Match.PortLo <= m.PortHi && m.PortLo <= r.Match.PortHi {
						t.Errorf("%s: switch %d allows %v and %v, whose ports overlap", spec.Name, sw, m, r.Match)
					}
				}
				ranges[key] = append(ranges[key], r.Match)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(smallSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(smallSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same seed must give same stats: %+v vs %+v", a.Stats(), b.Stats())
	}
	if len(a.Bindings) != len(b.Bindings) {
		t.Error("bindings differ across identical seeds")
	}
	for i := range a.Bindings {
		if a.Bindings[i] != b.Bindings[i] {
			t.Fatalf("binding %d differs", i)
		}
	}
	c, _, err := Generate(smallSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Bindings) == len(c.Bindings) && a.Stats() == c.Stats() {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestGenerateRejectsDegenerateSpecs(t *testing.T) {
	bad := smallSpec()
	bad.EPGs = 1
	if _, _, err := Generate(bad, 1); err == nil {
		t.Error("spec with 1 EPG must be rejected")
	}
	bad = smallSpec()
	bad.VRFs = 0
	if _, _, err := Generate(bad, 1); err == nil {
		t.Error("spec with 0 VRFs must be rejected")
	}
}

func TestGeneratedSharingIsHeavyTailed(t *testing.T) {
	// Figure 3 qualitative shape: most filters/contracts serve few pairs;
	// VRFs serve many; some objects serve orders of magnitude more than
	// the median.
	p, tp, err := Generate(smallSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	pairsPer := make(map[object.Ref]map[string]struct{})
	for i, sp := range d.Footprint.Pairs {
		for _, k := range d.Footprint.Keys[i] {
			for _, ref := range d.Provenance[k] {
				set, ok := pairsPer[ref]
				if !ok {
					set = make(map[string]struct{})
					pairsPer[ref] = set
				}
				set[sp.Pair.String()] = struct{}{}
			}
		}
	}
	var vrfMax, contractMax, contractSmall, contractTotal int
	for ref, pairs := range pairsPer {
		n := len(pairs)
		switch ref.Kind {
		case object.KindVRF:
			if n > vrfMax {
				vrfMax = n
			}
		case object.KindContract:
			contractTotal++
			if n < 10 {
				contractSmall++
			}
			if n > contractMax {
				contractMax = n
			}
		}
	}
	if vrfMax < 100 {
		t.Errorf("largest VRF serves %d pairs, want heavy sharing (>100)", vrfMax)
	}
	if contractTotal == 0 || float64(contractSmall)/float64(contractTotal) < 0.5 {
		t.Errorf("small contracts = %d/%d, want majority <10 pairs", contractSmall, contractTotal)
	}
	if contractMax < 20 {
		t.Errorf("largest contract serves %d pairs, want a heavy tail", contractMax)
	}
}

func buildEnv(t *testing.T) (*compile.Deployment, *DepIndex) {
	t.Helper()
	p, tp, err := Generate(smallSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	return d, BuildIndex(d)
}

func TestNewScenario(t *testing.T) {
	_, idx := buildEnv(t)
	rng := rand.New(rand.NewSource(1))
	sc, err := NewScenario(rng, idx.Objects(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 5 || len(sc.GroundTruth) != 5 {
		t.Fatalf("faults = %d", len(sc.Faults))
	}
	// Ground-truth objects are distinct.
	if len(object.NewSet(sc.GroundTruth...)) != 5 {
		t.Error("duplicate ground-truth objects")
	}
	// Every faulty object is "recently changed"; noise adds more.
	for _, ref := range sc.GroundTruth {
		if !sc.Changed.Has(ref) {
			t.Errorf("faulty %v missing from change set", ref)
		}
	}
	if len(sc.Changed) != 8 {
		t.Errorf("changed = %d, want 5+3", len(sc.Changed))
	}
	// Fractions are sane.
	for _, f := range sc.Faults {
		if f.Fraction <= 0 || f.Fraction > 1 {
			t.Errorf("fraction %v out of range", f.Fraction)
		}
	}
	if _, err := NewScenario(rng, idx.Objects()[:2], 5, 0); err == nil {
		t.Error("too many faults for candidate set must error")
	}
}

func TestScenarioMixesFullAndPartial(t *testing.T) {
	_, idx := buildEnv(t)
	rng := rand.New(rand.NewSource(2))
	full, partial := 0, 0
	for i := 0; i < 20; i++ {
		sc, err := NewScenario(rng, idx.Objects(), 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sc.Faults {
			if f.IsFull() {
				full++
			} else {
				partial++
			}
		}
	}
	// Equal weight → both kinds must appear in quantity.
	if full < 20 || partial < 20 {
		t.Errorf("full=%d partial=%d, want a rough balance over 100 faults", full, partial)
	}
}

// markController marks missing rules in an overlay of the controller model
// through the pipeline's augmentation and returns how many rules it marked.
func markController(o *risk.Overlay, d *compile.Deployment, missing map[object.ID][]rule.Rule) int {
	n := 0
	for sw, rules := range missing {
		risk.AugmentControllerModelPatch(o, sw, rules, d.Provenance).Apply(o)
		n += len(rules)
	}
	return n
}

// failedOf counts m's failed edges to ref, a risk of m's base.
func failedOf(m *risk.Overlay, ref object.Ref) int {
	r, _ := m.Base().RiskByRef(ref)
	n := 0
	for _, mk := range m.Marks() {
		if mk.Risk == r {
			n++
		}
	}
	return n
}

// controller builds d's controller model and counts the dependents of a
// ref in it.
func controller(t *testing.T, d *compile.Deployment) (*risk.Model, func(ref object.Ref) int) {
	t.Helper()
	m, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return m, func(ref object.Ref) int {
		r, ok := m.RiskByRef(ref)
		if !ok {
			return 0
		}
		return len(m.Dependents(r))
	}
}

func TestApplyToControllerModelFullFault(t *testing.T) {
	d, idx := buildEnv(t)
	ctrl, depsOf := controller(t, d)
	m := risk.NewOverlay(ctrl)
	// Pick an object with a decent footprint.
	var target object.Ref
	for _, ref := range idx.Objects() {
		if ref.Kind == object.KindFilter && len(idx.Instances(ref)) > 4 {
			target = ref
			break
		}
	}
	if target == (object.Ref{}) {
		t.Skip("no suitable filter in workload")
	}
	sc := Scenario{Faults: []Fault{{Ref: target, Fraction: 1}}}
	failed := markController(m, d, sc.Missing(idx, rand.New(rand.NewSource(3))))
	if failed != len(idx.Instances(target)) {
		t.Errorf("failed instances = %d, want all %d", failed, len(idx.Instances(target)))
	}
	// Full fault ⇒ hit ratio 1 for the target.
	if failed, deps := failedOf(m, target), depsOf(target); failed != deps {
		t.Errorf("hit ratio = %d/%d, want 1 after full fault", failed, deps)
	}
}

func TestApplyToControllerModelPartialFault(t *testing.T) {
	d, idx := buildEnv(t)
	ctrl, depsOf := controller(t, d)
	m := risk.NewOverlay(ctrl)
	var target object.Ref
	for _, ref := range idx.Objects() {
		if len(idx.Instances(ref)) >= 10 {
			target = ref
			break
		}
	}
	if target == (object.Ref{}) {
		t.Skip("no wide object in workload")
	}
	sc := Scenario{Faults: []Fault{{Ref: target, Fraction: 0.3}}}
	markController(m, d, sc.Missing(idx, rand.New(rand.NewSource(3))))
	if failed, deps := failedOf(m, target), depsOf(target); failed == 0 || failed >= deps {
		t.Errorf("partial fault hit ratio = %d/%d, want in (0,1)", failed, deps)
	}
}

// TestBuildIndexDeterministic: two builds of one deployment list every
// object's instances in the same order, so partial faults drawn with one
// seed remove the same rules whichever build they drew from. (BuildIndex
// once ranged over a map of the deployment's pairs, and a scenario was not
// reproducible.)
func TestBuildIndexDeterministic(t *testing.T) {
	d, first := buildEnv(t)
	var wide []Fault
	for _, ref := range first.Objects() {
		if len(first.Instances(ref)) >= 10 && len(wide) < 8 {
			wide = append(wide, Fault{Ref: ref, Fraction: 0.3})
		}
	}
	if len(wide) == 0 {
		t.Fatal("no wide object in workload")
	}
	missing := func(idx *DepIndex) map[object.ID][]rule.Rule {
		return Scenario{Faults: wide}.Missing(idx, rand.New(rand.NewSource(3)))
	}
	want := missing(first)
	for i := 0; i < 5; i++ {
		again := BuildIndex(d)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("build %d of one deployment differs from the first", i+2)
		}
		if got := missing(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d: one scenario and seed removed rules on %d switches, the first build on %d, or other rules",
				i+2, len(got), len(want))
		}
	}
}

func TestApplyToSwitchModel(t *testing.T) {
	d, _ := buildEnv(t)
	// Find a switch and an object deployed there.
	sw := d.Footprint.Pairs[0].Switch
	local := BuildIndex(&compile.Deployment{Provenance: d.Provenance, Footprint: d.OnSwitch(sw)})
	objs := local.Objects()
	if len(objs) == 0 {
		t.Skip("empty switch")
	}
	sc := Scenario{Faults: []Fault{{Ref: objs[0], Fraction: 1}}}
	missing := sc.Missing(local, rand.New(rand.NewSource(4)))
	if len(missing) != 1 || len(missing[sw]) == 0 {
		t.Fatalf("a fault drawn on switch %d removed rules on %d switches, %d there", sw, len(missing), len(missing[sw]))
	}
	m := risk.MarkSwitch(risk.NewModel("switch", d.OnSwitch(sw)), sw, missing[sw], d.Provenance).View()
	if len(m.SuspectSet()) == 0 {
		t.Error("model must have observations after injection")
	}
}

func TestFaultString(t *testing.T) {
	full := Fault{Ref: object.Filter(1), Fraction: 1}
	part := Fault{Ref: object.Filter(2), Fraction: 0.25}
	if full.String() != "full(filter:1)" {
		t.Errorf("full = %q", full.String())
	}
	if part.String() != "partial(filter:2,0.25)" {
		t.Errorf("partial = %q", part.String())
	}
}

func TestTopologyCoversAllSwitches(t *testing.T) {
	spec := smallSpec()
	spec.Switches = 50 // more switches than EPG placement may reach
	_, tp, err := Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 50 {
		t.Errorf("switches = %d, want 50 (padding)", tp.NumSwitches())
	}
}

func TestGenerateFewerSwitchesThanSpread(t *testing.T) {
	// Regression: a spec scaled down to fewer switches than
	// SwitchesPerEPGMax used to slice past the switch permutation.
	spec := smallSpec()
	spec.Switches = 2
	spec.SwitchesPerEPGMax = 5
	p, tp, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 2 {
		t.Errorf("switches = %d, want 2", tp.NumSwitches())
	}
	for _, ep := range p.Endpoints {
		if ep.Switch < 1 || ep.Switch > 2 {
			t.Fatalf("endpoint %d placed on nonexistent switch %d", ep.ID, ep.Switch)
		}
	}
}
