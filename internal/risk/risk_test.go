package risk_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/eval"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

// Each test is a case of the model runner (harness_test.go): a seed range
// and a shape, whose steps its name says it stresses. Every case holds the
// pristine model, the overlay over it and the overlay folded into a model
// to their references, and the models' adjacency rows to their
// invariants, after every step. The builds are held to refBuild, the
// pre-footprint build.

// runModels runs a case per seed below seeds (see runModel); a nil d runs
// them from a drawn footprint.
func runModels(t *testing.T, d *compile.Deployment, sw object.ID, seeds int64, steps int, ops ...op) modelStats {
	t.Helper()
	var stats modelStats
	for seed := int64(0); seed < seeds; seed++ {
		runModel(t, oracle.FromSeed(seed), d, sw, steps, ops, &stats)
	}
	return stats
}

// exercised fails the test unless the runs did what the case is for.
func exercised(t *testing.T, what string, n int) {
	t.Helper()
	if n == 0 {
		t.Errorf("no run %s; the case proves nothing", what)
	}
}

// TestModelBasics: a drawn footprint's model, which NewModel refuses when
// its triplets do not strictly ascend.
func TestModelBasics(t *testing.T) {
	s := runModels(t, nil, 0, 8, 40, opOverlay)
	exercised(t, "was refused a footprint whose triplets do not ascend", s.unsorted)
}

// TestMarkFailedAndObservations: an overlay's marks, an edge marked again
// included, are its failure signature, and folded they are a model's.
func TestMarkFailedAndObservations(t *testing.T) {
	s := runModels(t, nil, 0, 8, 60, opMark, opMark, opOverlay)
	exercised(t, "marked a failed edge again", s.remarked)
}

func TestMarkFailedCreatesMissingEdge(t *testing.T) {
	s := runModels(t, nil, 0, 8, 40, opMark, opMark, opOverlay)
	exercised(t, "created an overlay edge by marking it", s.created)
}

func TestHitAndCoverageRatios(t *testing.T) {
	runModels(t, nil, 0, 10, 80, opMark, opOverlay, opOverlay)
}

// TestSuspectSet: an overlay's suspects are the risks it marked, and an
// overlay goes only over a pristine model.
func TestSuspectSet(t *testing.T) {
	s := runModels(t, nil, 0, 8, 60, opMark, opOverlay)
	exercised(t, "was refused an overlay over a marked model", s.refused)
}

func TestModelString(t *testing.T) { runModels(t, nil, 0, 2, 10, opMark) }

func TestAccessors(t *testing.T) { runModels(t, nil, 0, 20, 80, allOps...) }

func TestOverlayEmpty(t *testing.T) { runModels(t, nil, 0, 4, 30, opOverlay) }

// TestOverlayMatchesClone: marks on overlays over the three-tier
// controller model and its rebuilds, and their folds, read as the
// reference marked alike.
func TestOverlayMatchesClone(t *testing.T) {
	s := runModels(t, threeTier(t), 0, 20, 30, opMark, opAugment, opPatch, opOverlay)
	exercised(t, "created an overlay edge by marking it", s.created)
}

func TestAugmentSwitchModel(t *testing.T) {
	runModels(t, threeTier(t), 2, 8, 30, opAugment, opMark, opOverlay)
}

// TestAugmentControllerModel: on the controller model, a switch's view
// and the controller's find its triplets by one lookup, and the
// controller's adds only their switch risk.
func TestAugmentControllerModel(t *testing.T) {
	s := runModels(t, threeTier(t), 0, 8, 30, opPatch, opBoth, opOverlay)
	exercised(t, "marked a switch risk in the controller view alone", s.switched)
}

func TestAugmentControllerModelPatch(t *testing.T) {
	runModels(t, nil, 0, 12, 60, opMark, opPatch, opBoth, opOverlay)
}

func TestAugmentIgnoresUnknownPairs(t *testing.T) {
	s := runModels(t, nil, 0, 8, 30, opAugment)
	exercised(t, "augmented a rule for a triplet the model lacks", s.skipped)
}

// TestAugmentResolvesProvenanceViaIndex: a rule's own provenance comes
// first, and one without looks its key up in the map.
func TestAugmentResolvesProvenanceViaIndex(t *testing.T) {
	s := runModels(t, nil, 0, 12, 40, opAugment, opOverlay)
	exercised(t, "resolved a rule's provenance through the map", s.resolved)
	exercised(t, "augmented a rule whose own provenance is not the map's", s.own)
}

// TestSwitchRunsNumberCreatedRisksSerially: switch 1 creates X, and
// switch 2 creates Y, then X, each on an edge outside its triplet's risk
// list. Joined in switch order, the controller view numbers X before Y,
// as marking rule by rule in switch order did, while switch 2's own view
// numbers Y first; every count reads as that marking's two overlays, the
// controller's and each switch's, read.
func TestSwitchRunsNumberCreatedRisksSerially(t *testing.T) {
	x, y, pair := object.Filter(9), object.Filter(8), policy.MakeEPGPair(1, 2)
	h := &harness{t: t, c: oracle.FromSeed(0), stats: &modelStats{}}
	h.start("literal", compile.Footprint{
		Pairs: []compile.SwitchPair{{Switch: 1, Pair: pair}, {Switch: 2, Pair: pair}},
		Risks: [][]object.Ref{{object.EPG(1), object.EPG(2), object.Switch(1)}, {object.EPG(1), object.EPG(2), object.Switch(2)}},
	})
	h.fresh()
	missing := func(refs ...object.Ref) []rule.Rule {
		return []rule.Rule{{Match: rule.Match{VRF: 1, SrcEPG: 1, DstEPG: 2, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80}, Action: rule.Allow, Provenance: refs}}
	}
	ctrl, views := h.join("X, then Y and X", []switchRules{{1, missing(x)}, {2, missing(y, x)}})
	same(t, "the controller view", "created risks", ctrl.ExtraRiskRefs(), []object.Ref{x, y})
	same(t, "switch 2's view", "created risks", views[1].ExtraRiskRefs(), []object.Ref{y, x})
	same(t, "the controller view", "summary", ctrl, `risk model "literal": 2 elements, 6 risks, 9 edges (5 failed)`)
	same(t, "switch 1's view", "summary", views[0], `risk model "literal": 1 elements, 5 risks, 4 edges (1 failed)`)
	same(t, "switch 2's view", "summary", views[1], `risk model "literal": 1 elements, 6 risks, 5 edges (2 failed)`)
}

// TestListProvenanceCreatesEdges: in a compiled deployment whose pair is
// bound by two contracts sharing a filter, the second with no filter of
// its own, every key of the second's is the first's, so the triplet's risk
// list names only the first; yet the rules the sort keeps under the shared
// filter carry the second's provenance (ROADMAP 1(c)). Marking them by
// their own lists creates an edge, and a risk, the model lacks.
func TestListProvenanceCreatesEdges(t *testing.T) {
	s := runModels(t, sharedFilter(t), 0, 12, 30, opAugment, opPatch, opBoth, opOverlay)
	exercised(t, "created an edge a deployed rule's own provenance names", s.listOnly)
}

// sharedFilter compiles TestListProvenanceCreatesEdges' deployment: EPGs
// 1 on switch 1 and 2 on switch 2, bound by contract 20 (filters 101 and
// 100 to 104) and, the other way, by contract 10 (filter 101). Five
// filters put 13 rules on each switch before deduplication, enough that
// the sort keeps contract 10's instances.
func sharedFilter(t testing.TB) *compile.Deployment {
	t.Helper()
	p := policy.New("list-provenance")
	p.AddVRF(policy.VRF{ID: 7})
	p.AddEPG(policy.EPG{ID: 1, Name: "a", VRF: 7})
	p.AddEPG(policy.EPG{ID: 2, Name: "b", VRF: 7})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	for _, port := range []uint16{100, 101, 102, 103, 104} {
		p.AddFilter(policy.Filter{ID: object.ID(port), Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, port)}})
	}
	p.AddContract(policy.Contract{ID: 20, Filters: []object.ID{101, 100, 102, 103, 104}})
	p.AddContract(policy.Contract{ID: 10, Filters: []object.ID{101}})
	p.Bind(1, 2, 20)
	p.Bind(2, 1, 10)
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// threeTier builds the Figure 1 example deployment.
func threeTier(t testing.TB) *compile.Deployment {
	t.Helper()
	p := oracle.ThreeTier()
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBuildSwitchModelFigure4a: S2 holds Web-App, relying on VRF:101,
// EPG:Web, EPG:App, Contract:201 and Filter:80, and App-DB, on Filter:700
// too. The runs start from the build, held to the reference.
func TestBuildSwitchModelFigure4a(t *testing.T) {
	d, vrf, app := threeTier(t), object.VRF(101), object.EPG(2)
	same(t, "S2", "edges", refBuild(d, 2).order, []edge{
		{0, vrf}, {0, object.EPG(1)}, {0, app}, {0, object.Contract(201)}, {0, object.Filter(80)},
		{1, vrf}, {1, app}, {1, object.EPG(3)}, {1, object.Contract(202)}, {1, object.Filter(80)}, {1, object.Filter(700)}})
	runModels(t, d, 2, 4, 20, allOps...)
}

// TestBuildControllerModelFigure4b: the triplets S1:1-2, S2:1-2, S2:2-3
// and S3:2-3, each depending on its own switch.
func TestBuildControllerModelFigure4b(t *testing.T) {
	d := threeTier(t)
	r := refBuild(d, 0)
	same(t, "controller", "triplets", r.pairs, []string{"S1:1-2", "S2:1-2", "S2:2-3", "S3:2-3"})
	same(t, "controller", "switch 2's dependents", r.elementsOf(object.Switch(2)), []int{1, 2})
	same(t, "controller", "switch edges", len(slices.DeleteFunc(slices.Clone(r.order), func(e edge) bool { return e.ref.Kind != object.KindSwitch })), 4)
	checkBuildsMatchOracle(t, "three-tier", d)
	runModels(t, d, 0, 4, 20, allOps...)
}

// refBuild is the model builds as they stood before the footprint carried
// per-pair risk lists: this switch's triplets (sw 0: every switch's)
// picked out of the footprint one by one, then every key of every pair
// looked up in Provenance and every ref offered to the edge map, which
// finds most of them already there, and on the controller model the
// triplet's switch. It reads the footprint's Keys, never its Risks.
func refBuild(d *compile.Deployment, sw object.ID) *refModel {
	var sps []compile.SwitchPair
	var keys [][]rule.Key
	for i, sp := range d.Footprint.Pairs {
		if sw == 0 || sp.Switch == sw {
			sps = append(sps, sp)
			keys = append(keys, d.Footprint.Keys[i])
		}
	}
	r := newRef("controller", sps)
	if sw != 0 {
		r.name = fmt.Sprintf("switch-%d", sw)
	}
	for i, sp := range sps {
		el := risk.ElementID(i)
		for _, k := range keys[i] {
			for _, ref := range d.Provenance[k] {
				r.add(edge{el, ref}, false)
			}
		}
		if sw == 0 {
			r.add(edge{el, object.Switch(sp.Switch)}, false)
		}
	}
	r.nBase = len(r.order)
	return r
}

// switchModel is sw's switch risk model built on its own, the reference
// its range of the controller model (SwitchMarks.View) answers to.
func switchModel(d *compile.Deployment, sw object.ID) *risk.Model {
	return risk.NewModel(fmt.Sprintf("switch-%d", sw), d.OnSwitch(sw))
}

// checkBuildsMatchOracle compares whole models — element triplets, element
// and risk IDs, adjacency order on both sides and edge counts — for every
// switch and for the controller model. Each switch's overlay of its range of the controller
// model finds the switch model's elements by the same triplets, and no
// other, and has one more edge an element: to the switch.
func checkBuildsMatchOracle(t *testing.T, name string, d *compile.Deployment) {
	t.Helper()
	check := func(what string, got, want *risk.Model) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s: %v, oracle built %v", name, what, got, want)
		}
	}
	ctrl := controllerModel(t, d)
	for sw := range d.BySwitch {
		m, ov := switchModel(d, sw), risk.MarkSwitch(ctrl, sw, nil, nil).View()
		check(fmt.Sprint("switch ", sw), m, refBuild(d, sw).replay())
		same(t, fmt.Sprint(name, ": switch ", sw, "'s range"), "elements and edges",
			[]int{ov.NumElements(), ov.NumEdges()}, []int{m.NumElements(), m.NumEdges() + m.NumElements()})
		lo, hi := ov.Range()
		for _, sp := range d.Footprint.Pairs {
			got, inRange := ctrl.ElementOf(sp)
			inRange, got = inRange && lo <= got && got < hi, got-lo
			want, ok := m.ElementOf(sp)
			if inRange != ok || ok && got != want {
				t.Errorf("%s: switch %d's range finds %v at %d (%v), its model at %d (%v)", name, sw, sp, got, inRange, want, ok)
			}
		}
	}
	checkView(t, name+": a switch that hosts nothing", switchModel(d, 60000), refBuild(d, 60000))
	check("controller", ctrl, refBuild(d, 0).replay())
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
			continue
		}
		// The benchmark's input, by the counts its controller model is
		// reported with.
		m := controllerModel(t, d)
		if m.NumElements() != 4290 || m.NumEdges() != 39221 {
			t.Errorf("production x0.25: %d elements, %d edges; want 4290, 39221", m.NumElements(), m.NumEdges())
		}
	}
}

// TestModelBuildsFirstEncounterOrder is the case where a pair's risk order
// is not its bindings' order: two contracts of one pair share a filter, so
// the second binding's keys under that filter are not fresh and its
// contract is first met through the filter only it has. Compile's
// footprint, gathered per pair, must list the risks in the order a walk of
// the pair's keys meets them, and the models built from it must be the
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
	d, err := compile.Compile(p, topo.FromPolicy(p))
	if err != nil {
		t.Fatal(err)
	}

	want := []object.Ref{
		object.VRF(7), object.EPG(1), object.EPG(2), object.Contract(20), object.Filter(101), // 1-2 under 20, filter 101
		object.Filter(100),                      // then 20's filter 100
		object.Contract(10), object.Filter(102), // 10 is first met under 102; its 101 keys are 20's
	}
	fp := d.Footprint
	for i, sp := range fp.Pairs {
		if sp.Pair == policy.MakeEPGPair(1, 2) && !reflect.DeepEqual(fp.Risks[i], want) {
			t.Errorf("%v depends on %v, want %v", sp, fp.Risks[i], want)
		}
	}
	if len(fp.Pairs) != 3 { // 1-2 on both switches, 2-3 on switch 2
		t.Errorf("footprint %v, want three triplets", fp.Pairs)
	}
	checkBuildsMatchOracle(t, "shared filter", d)
}
