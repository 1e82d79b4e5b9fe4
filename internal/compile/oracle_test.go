package compile_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"scout/internal/compile"
	"scout/internal/eval"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

// refCompile is the compiler as it stood before Compile was rebuilt around
// one Provenance lookup per rule: every rule appended per switch through the
// map, a reflective sort, a Dedupe map per switch and a key-dedupe map per
// (switch, pair), the footprint then derived from that map key by key. It
// is the oracle TestCompileMatchesOracle and FuzzCompile hold Compile to.
func refCompile(p *policy.Policy, t *topo.Topology) *compile.Deployment {
	d := &compile.Deployment{
		BySwitch:   make(map[object.ID][]rule.Rule, t.NumSwitches()),
		Provenance: make(map[rule.Key][]object.Ref),
	}
	pairRules := make(map[compile.SwitchPair][]rule.Key)
	for _, sw := range t.Switches() {
		d.BySwitch[sw] = nil
	}
	for _, b := range p.Bindings {
		from := p.EPGs[b.From]
		pair := policy.MakeEPGPair(b.From, b.To)
		switches := t.SwitchesForPair(b.From, b.To)
		if len(switches) == 0 {
			continue
		}
		for _, fid := range p.Contracts[b.Contract].Filters {
			prov := []object.Ref{
				object.VRF(from.VRF),
				object.EPG(b.From),
				object.EPG(b.To),
				object.Contract(b.Contract),
				object.Filter(fid),
			}
			object.SortRefs(prov)
			for _, e := range p.Filters[fid].Entries {
				ends := [][2]object.ID{{b.From, b.To}, {b.To, b.From}}
				if b.From == b.To {
					ends = ends[:1]
				}
				for _, end := range ends {
					dir := rule.Rule{
						Match: rule.Match{
							VRF: from.VRF, SrcEPG: end[0], DstEPG: end[1],
							Proto: e.Proto, PortLo: e.PortLo, PortHi: e.PortHi,
						},
						Action:     e.Action,
						Priority:   compile.EntryPriority,
						Provenance: prov,
					}
					key := dir.Key()
					if _, ok := d.Provenance[key]; !ok {
						d.Provenance[key] = dir.Provenance
					}
					for _, sw := range switches {
						d.BySwitch[sw] = append(d.BySwitch[sw], dir)
						sp := compile.SwitchPair{Switch: sw, Pair: pair}
						pairRules[sp] = append(pairRules[sp], key)
					}
				}
			}
		}
	}
	for sw, rules := range d.BySwitch {
		rules = append(rules, rule.DefaultDeny())
		sort.Slice(rules, func(i, j int) bool { return rule.Compare(rules[i], rules[j]) < 0 })
		d.BySwitch[sw] = oracle.Dedupe(rules)
	}
	fp := &d.Footprint
	fp.Pairs = make([]compile.SwitchPair, 0, len(pairRules)) // Compile's is never nil
	for sp := range pairRules {
		fp.Pairs = append(fp.Pairs, sp)
	}
	slices.SortFunc(fp.Pairs, compile.SwitchPair.Compare)
	fp.Risks = make([][]object.Ref, len(fp.Pairs))
	fp.Keys = make([][]rule.Key, len(fp.Pairs))
	for i, sp := range fp.Pairs {
		seen := make(map[rule.Key]struct{})
		for _, k := range pairRules[sp] {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			fp.Keys[i] = append(fp.Keys[i], k)
			for _, ref := range d.Provenance[k] {
				if !slices.Contains(fp.Risks[i], ref) {
					fp.Risks[i] = append(fp.Risks[i], ref)
				}
			}
		}
	}
	return d
}

// checkCompile holds Compile's deployment of p on t to refCompile's, whole,
// and checks that its footprint validates and that the OnSwitch runs of
// t's switches, laid end to end, are the footprint.
func checkCompile(t *testing.T, name string, p *policy.Policy, tp *topo.Topology) {
	t.Helper()
	got, err := compile.Compile(p, tp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := refCompile(p, tp); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Compile differs from the oracle", name)
	}
	if err := got.Footprint.Validate(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	runs := compile.Footprint{Pairs: []compile.SwitchPair{}, Risks: [][]object.Ref{}, Keys: [][]rule.Key{}}
	for _, sw := range tp.Switches() {
		run := got.OnSwitch(sw)
		for _, sp := range run.Pairs {
			if sp.Switch != sw {
				t.Errorf("%s: switch %d's run holds %v", name, sw, sp)
			}
		}
		runs.Pairs = append(runs.Pairs, run.Pairs...)
		runs.Risks = append(runs.Risks, run.Risks...)
		runs.Keys = append(runs.Keys, run.Keys...)
	}
	if !reflect.DeepEqual(runs, got.Footprint) {
		t.Errorf("%s: the switches' runs %v do not partition the footprint %v", name, runs.Pairs, got.Footprint.Pairs)
	}
}

// TestCompileMatchesOracle holds Compile to the retained oracle on the
// whole Deployment, footprint included — including which provenance a key bound more than once
// keeps in BySwitch, which is the unstable sort's choice and so depends on
// Compile sorting the same sequence with the same algorithm — and shows the
// result does not depend on how many workers sort the switches.
func TestCompileMatchesOracle(t *testing.T) {
	specs := []workload.Spec{workload.TestbedSpec(), workload.SmallFabricSpec(), eval.SimSpec(0.25)}
	for _, spec := range specs {
		p, tp, err := workload.Generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			checkCompile(t, fmt.Sprintf("%s at GOMAXPROCS %d", spec.Name, procs), p, tp)
			runtime.GOMAXPROCS(prev)
		}
		if spec.Name != "production" {
			continue
		}
		// The quarter-scale production spec is the benchmark's input; these
		// counts are the ones its workloads are described by.
		want := refCompile(p, tp)
		n, differ := 0, 0
		for _, rules := range want.BySwitch {
			n += len(rules)
			for _, r := range rules {
				if !reflect.DeepEqual(r.Provenance, want.Provenance[r.Key()]) {
					differ++
				}
			}
		}
		if keys := len(want.Provenance); n != 46216 || keys != 15918 || differ != 4967 {
			t.Errorf("%s: %d rules, %d keys, %d rules whose provenance differs from the key's; want 46216, 15918, 4967",
				spec.Name, n, keys, differ)
		}
	}
}

// FuzzCompile holds Compile to refCompile on a small policy drawn from the
// fuzzer's bytes (see drawPolicy).
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	for seed := range int64(16) {
		data := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, tp := drawPolicy(oracle.FromBytes(data))
		checkCompile(t, "drawn", p, tp)
	})
}

// drawPolicy draws a valid policy over two VRFs and up to six EPGs, and
// the topology its endpoints imply plus a switch that hosts nothing. The
// draw reaches what Compile dedupes and skips: filters shared across
// contracts (and listed twice in one), entries repeated across filters,
// self-pairs, a pair bound twice in either order, contracts and filters
// with nothing in them, and EPGs with no endpoint.
func drawPolicy(c *oracle.Choices) (*policy.Policy, *topo.Topology) {
	p := policy.New("drawn")
	p.AddVRF(policy.VRF{ID: 1})
	p.AddVRF(policy.VRF{ID: 2})
	epgs := 2 + c.Intn(5)
	for i := range epgs {
		id := object.ID(10 + i)
		p.AddEPG(policy.EPG{ID: id, VRF: object.ID(1 + c.Intn(2))})
		for j := range c.Intn(3) {
			p.AddEndpoint(policy.Endpoint{ID: object.ID(100*i + j), EPG: id, Switch: object.ID(1 + c.Intn(4))})
		}
	}
	filters := 1 + c.Intn(4)
	for i := range filters {
		f := policy.Filter{ID: object.ID(500 + i)}
		for range c.Intn(4) {
			lo := uint16(80 + c.Intn(3))
			f.Entries = append(f.Entries, policy.FilterEntry{
				Proto:  []rule.Protocol{rule.ProtoTCP, rule.ProtoUDP}[c.Intn(2)],
				PortLo: lo, PortHi: lo + uint16(c.Intn(2)),
				Action: rule.Allow, // a filter only allows (policy.Filter.Validate)
			})
		}
		p.AddFilter(f)
	}
	contracts := 1 + c.Intn(4)
	for i := range contracts {
		ct := policy.Contract{ID: object.ID(200 + i)}
		for range c.Intn(4) {
			ct.Filters = append(ct.Filters, object.ID(500+c.Intn(filters)))
		}
		p.AddContract(ct)
	}
	for range c.Intn(9) {
		if n := len(p.Bindings); n > 0 && c.Chance(4) {
			b := p.Bindings[c.Intn(n)] // the pair again, either way round
			p.Bind(b.To, b.From, object.ID(200+c.Intn(contracts)))
			continue
		}
		from := p.EPGs[object.ID(10+c.Intn(epgs))]
		var peers []object.ID
		for i := range epgs {
			if e := p.EPGs[object.ID(10+i)]; e.VRF == from.VRF {
				peers = append(peers, e.ID)
			}
		}
		p.Bind(from.ID, peers[c.Intn(len(peers))], object.ID(200+c.Intn(contracts)))
	}
	tp := topo.FromPolicy(p)
	tp.AddSwitch(9)
	return p, tp
}
