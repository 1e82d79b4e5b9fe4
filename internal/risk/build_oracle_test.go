package risk_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/eval"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

// refBuildSwitchModel and refBuildControllerModel are the model builds as
// they stood before the deployment carried its footprint: this switch's
// pairs picked out of the whole PairRules map and sorted, then every key
// of every pair looked up in Provenance and every ref offered to AddEdge,
// which finds most of them already there. They are the oracles
// TestModelBuildsMatchOracle holds the footprint builds to.
func refBuildSwitchModel(d *compile.Deployment, sw object.ID) *risk.Model {
	m := risk.NewModel(fmt.Sprintf("switch-%d", sw))
	var pairs []compile.SwitchPair
	for sp := range d.PairRules {
		if sp.Switch == sw {
			pairs = append(pairs, sp)
		}
	}
	slices.SortFunc(pairs, compile.SwitchPair.Compare)
	for _, sp := range pairs {
		el := m.EnsureElement(sp.Pair.String())
		for _, k := range d.PairRules[sp] {
			for _, ref := range d.Provenance[k] {
				m.AddEdge(el, ref)
			}
		}
	}
	return m
}

func refBuildControllerModel(d *compile.Deployment, opts risk.ControllerModelOptions) *risk.Model {
	m := risk.NewModel("controller")
	sps := make([]compile.SwitchPair, 0, len(d.PairRules))
	for sp := range d.PairRules {
		sps = append(sps, sp)
	}
	slices.SortFunc(sps, compile.SwitchPair.Compare)
	for _, sp := range sps {
		el := m.EnsureElement(sp.String())
		for _, k := range d.PairRules[sp] {
			for _, ref := range d.Provenance[k] {
				m.AddEdge(el, ref)
			}
		}
		if opts.IncludeSwitchRisk {
			m.AddEdge(el, object.Switch(sp.Switch))
		}
	}
	return m
}

// checkBuildsMatchOracle compares whole models — element and risk IDs,
// adjacency order on both sides, edge counts and the mutation revision the
// plan cache keys on — for every switch and for the controller model with
// and without switch risks at 1, 2 and 4 workers.
func checkBuildsMatchOracle(t *testing.T, name string, d *compile.Deployment) {
	t.Helper()
	switches := make([]object.ID, 0, len(d.BySwitch))
	for sw := range d.BySwitch {
		switches = append(switches, sw)
	}
	for _, sw := range append(switches, 60000) { // and a switch that hosts nothing
		if got, want := risk.BuildSwitchModel(d, sw), refBuildSwitchModel(d, sw); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: switch %d: %v, oracle built %v", name, sw, got, want)
		}
	}
	for _, withSwitch := range []bool{true, false} {
		opts := risk.ControllerModelOptions{IncludeSwitchRisk: withSwitch}
		want := refBuildControllerModel(d, opts)
		for _, workers := range []int{1, 2, 4} {
			if got := risk.BuildControllerModelParallel(d, opts, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: controller (switch risks %v) at %d workers: %v, oracle built %v", name, withSwitch, workers, got, want)
			}
		}
	}
}

// withoutFootprint is d as a deployment assembled by hand has it: the
// three maps and nothing Compile derived from them.
func withoutFootprint(d *compile.Deployment) *compile.Deployment {
	return &compile.Deployment{BySwitch: d.BySwitch, Provenance: d.Provenance, PairRules: d.PairRules}
}

func TestModelBuildsMatchOracle(t *testing.T) {
	for _, spec := range []workload.Spec{workload.TestbedSpec(), workload.SmallFabricSpec(), eval.SimSpec(0.25)} {
		p, tp, err := workload.Generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		d, err := compile.Compile(p, tp)
		if err != nil {
			t.Fatal(err)
		}
		checkBuildsMatchOracle(t, spec.Name, d)
		if spec.Name != "production" {
			checkBuildsMatchOracle(t, spec.Name+" by hand", withoutFootprint(d))
			continue
		}
		// The benchmark's input, by the counts its controller model is
		// reported with.
		m := risk.BuildControllerModelParallel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true}, 2)
		if m.NumElements() != 4290 || m.NumEdges() != 39221 {
			t.Errorf("production x0.25: %d elements, %d edges; want 4290, 39221", m.NumElements(), m.NumEdges())
		}
	}
}

// TestModelBuildsFirstEncounterOrder is the case where a pair's risk order
// is not its bindings' order: two contracts of one pair share a filter, so
// the second binding's keys under that filter are not fresh and its
// contract is first met through the filter only it has. The footprint —
// Compile's, gathered per pair, and the one derived key by key for a
// deployment without — must list the risks in the order a walk of the
// pair's keys meets them, and the models built from either must be the
// oracle's.
func TestModelBuildsFirstEncounterOrder(t *testing.T) {
	p := policy.New("shared-filter")
	p.AddVRF(policy.VRF{ID: 7})
	p.AddEPG(policy.EPG{ID: 1, Name: "a", VRF: 7})
	p.AddEPG(policy.EPG{ID: 2, Name: "b", VRF: 7})
	p.AddEPG(policy.EPG{ID: 3, Name: "c", VRF: 7})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	p.AddEndpoint(policy.Endpoint{ID: 13, EPG: 3, Switch: 2})
	for _, port := range []uint16{100, 101, 102} {
		p.AddFilter(policy.Filter{ID: object.ID(port), Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, port)}})
	}
	p.AddContract(policy.Contract{ID: 20, Filters: []object.ID{101, 100}})
	p.AddContract(policy.Contract{ID: 10, Filters: []object.ID{102, 101}})
	p.Bind(1, 2, 20)
	p.Bind(2, 3, 10)
	p.Bind(2, 1, 10) // the pair 1-2 again, sharing filter 101 with contract 20
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	byHand := withoutFootprint(d)

	want := []object.Ref{
		object.VRF(7), object.EPG(1), object.EPG(2), object.Contract(20), object.Filter(101), // 1-2 under 20, filter 101
		object.Filter(100),                      // then 20's filter 100
		object.Contract(10), object.Filter(102), // 10 is first met under 102; its 101 keys are 20's
	}
	for name, dep := range map[string]*compile.Deployment{"compiled": d, "by hand": byHand} {
		fp := dep.Footprint()
		for i, sp := range fp.Pairs {
			if sp.Pair == policy.MakeEPGPair(1, 2) && !reflect.DeepEqual(fp.Risks[i], want) {
				t.Errorf("%s: %v depends on %v, want %v", name, sp, fp.Risks[i], want)
			}
		}
		if len(fp.Pairs) != 3 { // 1-2 on both switches, 2-3 on switch 2
			t.Errorf("%s: footprint %v, want three triplets", name, fp.Pairs)
		}
		checkBuildsMatchOracle(t, name, dep)
	}
	if !reflect.DeepEqual(d.Footprint(), byHand.Footprint()) {
		t.Errorf("Compile's footprint %v differs from the derived one %v", d.Footprint(), byHand.Footprint())
	}
}
