package compile_test

import (
	"reflect"
	"runtime"
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
// (switch, pair). It is the oracle TestCompileMatchesOracle holds Compile to.
func refCompile(p *policy.Policy, t *topo.Topology) *compile.Deployment {
	d := &compile.Deployment{
		BySwitch:   make(map[object.ID][]rule.Rule, t.NumSwitches()),
		Provenance: make(map[rule.Key][]object.Ref),
		PairRules:  make(map[compile.SwitchPair][]rule.Key),
	}
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
						d.PairRules[sp] = append(d.PairRules[sp], key)
					}
				}
			}
		}
	}
	for sw, rules := range d.BySwitch {
		rules = append(rules, rule.DefaultDeny())
		sort.Slice(rules, func(i, j int) bool { return rule.Less(rules[i], rules[j]) })
		d.BySwitch[sw] = oracle.Dedupe(rules)
	}
	for sp, keys := range d.PairRules {
		seen := make(map[rule.Key]struct{}, len(keys))
		out := keys[:0]
		for _, k := range keys {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, k)
			}
		}
		d.PairRules[sp] = out
	}
	return d
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
		want := refCompile(p, tp)
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := compile.Compile(p, tp)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.BySwitch, want.BySwitch) || !reflect.DeepEqual(got.Provenance, want.Provenance) ||
				!reflect.DeepEqual(got.PairRules, want.PairRules) {
				t.Errorf("%s at GOMAXPROCS %d: Compile differs from the oracle", spec.Name, procs)
			}
			// The oracle is built by hand and carries no footprint: its own
			// is derived key by key, and Compile's per-pair one must equal it.
			if !reflect.DeepEqual(got.Footprint(), want.Footprint()) {
				t.Errorf("%s at GOMAXPROCS %d: Compile's footprint differs from the one derived from PairRules", spec.Name, procs)
			}
			for _, sw := range tp.Switches() {
				if !reflect.DeepEqual(got.OnSwitch(sw), want.OnSwitch(sw)) {
					t.Errorf("%s at GOMAXPROCS %d: switch %d's run of the footprint differs", spec.Name, procs, sw)
				}
			}
		}
		if spec.Name != "production" {
			continue
		}
		// The quarter-scale production spec is the benchmark's input; these
		// counts are the ones its workloads are described by.
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
