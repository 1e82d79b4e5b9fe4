package risk

import (
	"reflect"
	"testing"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

func TestModelBasics(t *testing.T) {
	m := NewModel("test")
	e1 := m.EnsureElement("1-2")
	if again := m.EnsureElement("1-2"); again != e1 {
		t.Error("EnsureElement must be idempotent")
	}
	m.AddEdge(e1, object.Filter(1))
	m.AddEdge(e1, object.Filter(1)) // duplicate edge
	m.AddEdge(e1, object.VRF(9))
	if m.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", m.NumEdges())
	}
	if m.NumElements() != 1 || m.NumRisks() != 2 {
		t.Errorf("elements=%d risks=%d", m.NumElements(), m.NumRisks())
	}
	if got, ok := m.ElementByLabel("1-2"); !ok || got != e1 {
		t.Errorf("ElementByLabel(1-2) = %d,%v", got, ok)
	}
	if got := risksOf(m, e1); !reflect.DeepEqual(got, []object.Ref{object.VRF(9), object.Filter(1)}) {
		t.Errorf("risksOf = %v", got)
	}
}

func TestMarkFailedAndObservations(t *testing.T) {
	m := NewModel("test")
	e1 := m.EnsureElement("1-2")
	e2 := m.EnsureElement("2-3")
	m.AddEdge(e1, object.Filter(1))
	m.AddEdge(e2, object.Filter(1))

	if isObservation(m, e1) {
		t.Error("fresh element is not an observation")
	}
	if !m.MarkFailed(e1, object.Filter(1)) {
		t.Error("first MarkFailed transitions the edge")
	}
	if m.MarkFailed(e1, object.Filter(1)) {
		t.Error("second MarkFailed is a no-op")
	}
	if !isObservation(m, e1) || isObservation(m, e2) {
		t.Error("observation status wrong")
	}
	if got := m.FailureSignature(); !reflect.DeepEqual(got, []ElementID{e1}) {
		t.Errorf("FailureSignature = %v", got)
	}
	if !edgeFailed(m, e1, object.Filter(1)) || edgeFailed(m, e2, object.Filter(1)) {
		t.Error("edgeFailed wrong")
	}
	if m.NumFailedEdges() != 1 {
		t.Errorf("NumFailedEdges = %d", m.NumFailedEdges())
	}
}

func TestMarkFailedCreatesMissingEdge(t *testing.T) {
	m := NewModel("test")
	e := m.EnsureElement("x")
	m.MarkFailed(e, object.EPG(7))
	if !edgeFailed(m, e, object.EPG(7)) {
		t.Error("MarkFailed on a new edge must create and fail it")
	}
	if m.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", m.NumEdges())
	}
}

func TestHitAndCoverageRatios(t *testing.T) {
	// Figure 5 topology (left model): F2 depends on 4 pairs, all failed;
	// C1 on 1 pair, none failed.
	m := NewModel("fig5")
	pairs := []string{"E1-E2", "E2-E3", "E3-E4", "E4-E5", "E5-E6"}
	var els []ElementID
	for _, p := range pairs {
		els = append(els, m.EnsureElement(p))
	}
	f2 := object.Filter(2)
	c1 := object.Contract(1)
	for _, el := range els[1:] {
		m.AddEdge(el, f2)
	}
	m.AddEdge(els[0], c1)
	for _, el := range els[1:] {
		m.MarkFailed(el, f2)
	}

	if got := hitRatio(m, f2); got != 1.0 {
		t.Errorf("hit(F2) = %v, want 1", got)
	}
	if got := hitRatio(m, c1); got != 0 {
		t.Errorf("hit(C1) = %v, want 0", got)
	}
	if got := coverageRatio(m, f2); got != 1.0 {
		t.Errorf("cov(F2) = %v, want 1 (covers all 4 observations)", got)
	}
	if hitRatio(m, object.Filter(99)) != 0 || coverageRatio(m, object.Filter(99)) != 0 {
		t.Error("unknown risks have zero ratios")
	}
	if got := len(m.ElementsOf(f2)); got != 4 {
		t.Errorf("ElementsOf(F2) = %d", got)
	}
	if got := len(m.FailedElementsOf(f2)); got != 4 {
		t.Errorf("FailedElementsOf(F2) = %d", got)
	}
}

// TestSuspectSet: an overlay's suspects are the risks failed in its base
// and the risks it marks itself.
func TestSuspectSet(t *testing.T) {
	m := NewModel("t")
	e := m.EnsureElement("a")
	m.AddEdge(e, object.VRF(1))
	m.AddEdge(e, object.Filter(2))
	m.MarkFailed(e, object.Filter(2))
	e2 := m.EnsureElement("b")
	m.AddEdge(e2, object.Contract(3)) // healthy edge: not a suspect
	ov := NewOverlay(m)
	ov.MarkFailed(e, object.VRF(1))
	got := ov.SuspectSet()
	want := []object.Ref{object.VRF(1), object.Filter(2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SuspectSet = %v, want %v", got, want)
	}
}

func TestResetFailures(t *testing.T) {
	m := NewModel("t")
	e := m.EnsureElement("a")
	m.AddEdge(e, object.VRF(1))
	m.MarkFailed(e, object.VRF(1))
	m.ResetFailures()
	if m.NumFailedEdges() != 0 || len(m.FailureSignature()) != 0 {
		t.Error("ResetFailures must clear all failure state")
	}
	if m.NumEdges() != 1 {
		t.Error("ResetFailures must keep edges")
	}
	// Model must be reusable.
	if !m.MarkFailed(e, object.VRF(1)) {
		t.Error("model unusable after reset")
	}
}

// threeTier builds the Figure 1 example deployment used by builder tests.
func threeTier(t *testing.T) *compile.Deployment {
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
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildSwitchModelFigure4a(t *testing.T) {
	d := threeTier(t)
	m := BuildSwitchModel(d, 2)
	// Figure 4(a): S2 has pairs Web-App and App-DB.
	if m.NumElements() != 2 {
		t.Fatalf("S2 elements = %d, want 2", m.NumElements())
	}
	webApp, ok := m.ElementByLabel("1-2")
	if !ok {
		t.Fatal("Web-App pair missing")
	}
	// Web-App relies on VRF:101, EPG:Web, EPG:App, Contract:201, Filter:80.
	want := []object.Ref{
		object.VRF(101), object.EPG(1), object.EPG(2),
		object.Contract(201), object.Filter(80),
	}
	if got := risksOf(m, webApp); !reflect.DeepEqual(got, want) {
		t.Errorf("Web-App risks = %v, want %v", got, want)
	}
	// App-DB additionally relies on Filter:700.
	appDB, _ := m.ElementByLabel("2-3")
	risks := object.NewSet(risksOf(m, appDB)...)
	if !risks.Has(object.Filter(700)) || !risks.Has(object.Filter(80)) {
		t.Errorf("App-DB risks = %v", risks.Sorted())
	}
}

func TestBuildControllerModelFigure4b(t *testing.T) {
	d := threeTier(t)
	m := BuildControllerModel(d, ControllerModelOptions{})
	// Triplets: S1:1-2, S2:1-2, S2:2-3, S3:2-3.
	if m.NumElements() != 4 {
		t.Fatalf("controller elements = %d, want 4", m.NumElements())
	}
	if _, ok := m.RiskByRef(object.Switch(1)); ok {
		t.Error("switch risks must be absent without IncludeSwitchRisk")
	}

	withSwitch := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
	if _, ok := withSwitch.RiskByRef(object.Switch(1)); !ok {
		t.Error("switch risks must be modeled when requested")
	}
	el, _ := withSwitch.ElementByLabel("S2:1-2")
	risks := object.NewSet(risksOf(withSwitch, el)...)
	if !risks.Has(object.Switch(2)) {
		t.Error("triplet must depend on its switch")
	}
	if risks.Has(object.Switch(1)) {
		t.Error("triplet must not depend on other switches")
	}
}

func TestAugmentSwitchModel(t *testing.T) {
	d := threeTier(t)
	m := BuildSwitchModel(d, 2)
	// Simulate the paper's §III-C example: the Web→App rule (1st rule of
	// Figure 2) missing from S2's TCAM.
	var missing []rule.Rule
	for _, r := range d.RulesFor(2) {
		if r.Match.SrcEPG == 1 && r.Match.DstEPG == 2 {
			missing = append(missing, r)
		}
	}
	if len(missing) != 1 {
		t.Fatalf("setup: %d missing rules", len(missing))
	}
	marked := AugmentSwitchModel(m, missing, d.Provenance)
	if marked != 5 {
		t.Errorf("marked = %d, want 5 (vrf, 2 epgs, contract, filter)", marked)
	}
	webApp, _ := m.ElementByLabel("1-2")
	if !isObservation(m, webApp) {
		t.Error("Web-App must be an observation")
	}
	appDB, _ := m.ElementByLabel("2-3")
	if isObservation(m, appDB) {
		t.Error("App-DB must stay healthy")
	}
	// Occam's razor setup: EPG:Web and Contract:201 have hit ratio 1 (only
	// Web-App depends on them); VRF:101 and EPG:App are shared with the
	// healthy App-DB pair so their hit ratio is 0.5.
	if hitRatio(m, object.EPG(1)) != 1 || hitRatio(m, object.Contract(201)) != 1 {
		t.Error("exclusive objects must have hit ratio 1")
	}
	if hitRatio(m, object.VRF(101)) != 0.5 || hitRatio(m, object.EPG(2)) != 0.5 {
		t.Error("shared objects must have hit ratio 0.5")
	}
}

func TestAugmentControllerModel(t *testing.T) {
	d := threeTier(t)
	m := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
	var missing []rule.Rule
	for _, r := range d.RulesFor(2) {
		if r.Match.SrcEPG == 1 && r.Match.DstEPG == 2 {
			missing = append(missing, r)
		}
	}
	AugmentControllerModel(m, 2, missing, d.Provenance)

	// Figure 4(b): only S2:1-2 is marked fail; S1:1-2 stays healthy since
	// the rule is present on S1.
	s2, _ := m.ElementByLabel("S2:1-2")
	s1, _ := m.ElementByLabel("S1:1-2")
	if !isObservation(m, s2) || isObservation(m, s1) {
		t.Error("only the triplet on the faulty switch is an observation")
	}
	if !edgeFailed(m, s2, object.Switch(2)) {
		t.Error("switch edge must be flagged for the failing triplet")
	}
}

func TestAugmentIgnoresUnknownPairs(t *testing.T) {
	d := threeTier(t)
	m := BuildSwitchModel(d, 1)
	ghost := rule.Rule{
		Match:      rule.Match{VRF: 101, SrcEPG: 8, DstEPG: 9, Proto: rule.ProtoTCP, PortLo: 1, PortHi: 1},
		Action:     rule.Allow,
		Provenance: []object.Ref{object.VRF(101)},
	}
	if marked := AugmentSwitchModel(m, []rule.Rule{ghost}, d.Provenance); marked != 0 {
		t.Error("rules for unmodeled pairs must be skipped")
	}
}

func TestModelString(t *testing.T) {
	m := NewModel("demo")
	if got := m.String(); got == "" {
		t.Error("String must describe the model")
	}
}

func TestAccessors(t *testing.T) {
	m := NewModel("acc")
	if m.Name() != "acc" {
		t.Errorf("Name = %q", m.Name())
	}
	e := m.EnsureElement("1-2")
	m.AddEdge(e, object.Filter(1))
	m.AddEdge(e, object.VRF(2))
	m.MarkFailed(e, object.Filter(1))

	if r, ok := m.RiskByRef(object.Filter(1)); !ok || r != 0 {
		t.Errorf("RiskByRef(filter:1) = %d,%v; want the first risk made", r, ok)
	}
	if got := failedRisksOf(m, e); len(got) != 1 || got[0] != object.Filter(1) {
		t.Errorf("failedRisksOf = %v", got)
	}
	if got := m.ElementsOf(object.Filter(1)); len(got) != 1 || got[0] != e {
		t.Errorf("ElementsOf = %v", got)
	}
	if m.ElementsOf(object.Filter(99)) != nil {
		t.Error("unknown risk has no elements")
	}
	if got := m.Risks(); len(got) != 2 {
		t.Errorf("Risks = %v", got)
	}
	// ElementsOf returns a copy.
	els := m.ElementsOf(object.Filter(1))
	els[0] = ElementID(99)
	if m.ElementsOf(object.Filter(1))[0] != e {
		t.Error("ElementsOf must copy")
	}
}

func TestAugmentResolvesProvenanceViaIndex(t *testing.T) {
	d := threeTier(t)
	m := BuildSwitchModel(d, 2)
	// A T-type rule (no provenance) whose key exists in the deployment:
	// provenanceOf must resolve through the index.
	var bare rule.Rule
	for _, r := range d.RulesFor(2) {
		if !r.IsDefaultDeny() {
			bare = r
			bare.Provenance = nil
			break
		}
	}
	if marked := AugmentSwitchModel(m, []rule.Rule{bare}, d.Provenance); marked == 0 {
		t.Error("augmentation must resolve provenance through the index")
	}
	// Without any index, the rule is unattributable and skipped.
	m2 := BuildSwitchModel(d, 2)
	if marked := AugmentSwitchModel(m2, []rule.Rule{bare}, nil); marked != 0 {
		t.Error("unattributable rules must be skipped")
	}
}
