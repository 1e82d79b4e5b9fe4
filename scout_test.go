package scout_test

import (
	"slices"
	"strings"
	"testing"

	"scout"
	"scout/internal/tcam"
)

// threeTier builds the paper's running example (Figure 1): a 3-tier web
// service with Web, App, and DB EPGs on three switches.
func threeTier(t testing.TB) (*scout.Policy, *scout.Topology) {
	t.Helper()
	p := scout.NewPolicy("three-tier")
	p.AddVRF(scout.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(scout.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(scout.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(scout.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(scout.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(scout.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(scout.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(scout.Filter{ID: 80, Name: "port-80", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 80),
	}})
	p.AddFilter(scout.Filter{ID: 700, Name: "port-700", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 700),
	}})
	p.AddContract(scout.Contract{ID: 201, Name: "Web-App", Filters: []scout.ObjectID{80}})
	p.AddContract(scout.Contract{ID: 202, Name: "App-DB", Filters: []scout.ObjectID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	if err := p.Validate(); err != nil {
		t.Fatalf("three-tier policy invalid: %v", err)
	}
	return p, scout.TopologyFromPolicy(p)
}

func TestAnalyzeConsistentFabric(t *testing.T) {
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatalf("expected consistent fabric, got report: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "consistent") {
		t.Errorf("summary should mention consistency: %q", rep.Summary())
	}
}

func TestAnalyzeLocalizesEvictedFilter(t *testing.T) {
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}

	// Full fault on filter 700: every TCAM rule derived from it vanishes.
	removed, err := f.InjectObjectFault(scout.FilterRef(700), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("fault injection removed no rules")
	}

	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("expected inconsistency after fault injection")
	}
	found := false
	for _, ref := range rep.Hypothesis {
		if ref == scout.FilterRef(700) {
			found = true
		}
	}
	if !found {
		t.Errorf("hypothesis %v should contain filter:700", rep.Hypothesis)
	}
}

func TestAnalyzeUnresponsiveSwitch(t *testing.T) {
	p, topo := threeTier(t)
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}

	// Switch 2 goes dark; a new filter is then pushed, so S2 misses it.
	if err := f.Disconnect(2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilter(scout.Filter{ID: 443, Name: "port-443", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 443),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(202, 443); err != nil {
		t.Fatal(err)
	}

	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("expected inconsistency: switch 2 missed the new filter")
	}
	// Only switch 2 should be inconsistent.
	for _, sr := range rep.Switches {
		wantEquivalent := sr.Switch != 2
		if sr.Equivalent != wantEquivalent {
			t.Errorf("switch %d equivalent=%v, want %v", sr.Switch, sr.Equivalent, wantEquivalent)
		}
	}
	// Root cause should name the unresponsive switch.
	if rep.RootCauses == nil || len(rep.RootCauses.RootCauses) == 0 {
		t.Fatalf("expected a root cause; summary:\n%s", rep.Summary())
	}
	rc := rep.RootCauses.RootCauses[0]
	if rc.Signature != "unresponsive-switch" || rc.Switch != 2 {
		t.Errorf("top root cause = %q on switch %d, want unresponsive-switch on 2", rc.Signature, rc.Switch)
	}
}

// TestPipelineNeverWritesProvenance guards the contract every layer relies
// on since rules are shared, not copied (rule.Rule): a rule's provenance
// slice is never written after the compiler made it. The deployment's lists,
// the TCAMs, their snapshots and every report hold the same slices, so one
// write anywhere would show in the logical rules — which this test holds
// deep copies of while it drives every mutating path of the fabric and both
// observation sources, a warm-store session closed and restarted included.
func TestPipelineNeverWritesProvenance(t *testing.T) {
	pol, topo, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}

	type heldRule struct {
		rule *scout.Rule
		want []scout.ObjectRef
	}
	var held []heldRule
	var sharedA, sharedB *scout.Rule // two rules the compiler gave one slice
	hold := func(d *scout.Deployment) {
		byFirst := make(map[*scout.ObjectRef]*scout.Rule)
		for _, rules := range d.BySwitch {
			for i := range rules {
				r := &rules[i]
				held = append(held, heldRule{r, slices.Clone(r.Provenance)})
				if len(r.Provenance) == 0 {
					continue
				}
				if other, ok := byFirst[&r.Provenance[0]]; ok && sharedA == nil {
					sharedA, sharedB = other, r
				}
				byFirst[&r.Provenance[0]] = r
			}
		}
	}
	hold(f.Deployment())
	if sharedA == nil {
		t.Fatal("no two logical rules share a provenance slice; the compiler is expected to share one per (binding, filter)")
	}

	analyze := func(opts scout.AnalyzerOptions) {
		t.Helper()
		rep, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Consistent {
			t.Fatal("the faulted fabric analyzed consistent; the reports under test carry no rules")
		}
	}
	switches := topo.Switches()
	first, last := switches[0], switches[len(switches)-1]
	var filter scout.ObjectID
	for id := range pol.Filters {
		if filter == 0 || id < filter {
			filter = id
		}
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filter), 0.5); err != nil {
		t.Fatal(err)
	}
	for _, field := range []tcam.CorruptionField{tcam.CorruptVRF, tcam.CorruptSrcEPG, tcam.CorruptDstEPG, tcam.CorruptPort} {
		if _, err := f.CorruptTCAM(last, 2, field); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.EvictTCAM(first, 3); err != nil {
		t.Fatal(err)
	}
	analyze(scout.AnalyzerOptions{Workers: 2})
	analyze(scout.AnalyzerOptions{Workers: 2, UseProbes: true})

	// A redeploy into a crashed agent, applied on restart: the new
	// deployment's rules join the guard as they appear.
	if err := f.CrashAgent(first); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	hold(f.Deployment())
	if err := f.RestartAgent(first); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EvictTCAM(first, 3); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for restart := 0; restart < 2; restart++ {
		ws, err := scout.OpenWarmStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: 2, WarmStore: ws})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Analyze(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, h := range held {
		if !slices.Equal(h.rule.Provenance, h.want) {
			t.Fatalf("provenance of %s was written: %v, compiled as %v", h.rule, h.rule.Provenance, h.want)
		}
	}
	if &sharedA.Provenance[0] != &sharedB.Provenance[0] {
		t.Errorf("%s and %s no longer share the slice the compiler gave them", sharedA, sharedB)
	}
}
