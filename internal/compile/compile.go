// Package compile renders an abstract network policy into per-switch
// logical TCAM rules (the paper's L-type rules).
//
// For every contract binding (A, B, contract) the compiler emits, for each
// entry of each filter referenced by the contract, a pair of directional
// rules (A→B and B→A, as in the paper's Figure 2), placed on every switch
// that hosts endpoints of A or B. Each rule carries the provenance set
// {VRF, EPG A, EPG B, contract, filter} — its shared risks.
package compile

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

// EntryPriority is the priority assigned to compiled filter-entry rules;
// the default-deny tail sits below at priority 0.
const EntryPriority = 10

// Deployment is the compiled desired state: the logical rules every switch
// should carry, the provenance of every rule key, and the footprint the
// risk models are built over. Compile fills all three; a deployment built
// by hand fills them itself, its footprint as Footprint says.
type Deployment struct {
	// BySwitch maps a switch ID to its sorted, deduped logical rules
	// (including the default-deny tail).
	BySwitch map[object.ID][]rule.Rule

	// Provenance maps a rule Key to the provenance set of the logical
	// rule(s) with that key. Used to annotate missing T-type rules, which
	// arrive from the equivalence checker without provenance.
	Provenance map[rule.Key][]object.Ref

	// Footprint is the deployment's one index of (switch, EPG pair)
	// triplets.
	Footprint Footprint
}

// Footprint is where a deployment's pairs land and what each depends on.
// Pairs is the (switch, pair) triplets in strictly ascending order; Keys
// and Risks align with it. Keys[i] is the keys of the logical rules
// serving Pairs[i], each once. Risks[i] is the policy objects those rules
// carry: every provenance ref of every key, each once, in the order a walk
// of Keys[i] first meets them.
// Both are facts about the pair, so in a compiled deployment the switches
// of a pair share one list of each. Read-only.
type Footprint struct {
	Pairs []SwitchPair
	Risks [][]object.Ref
	Keys  [][]rule.Key
}

// Validate reports a footprint whose triplets do not strictly ascend or
// whose Risks or Keys do not align with its Pairs.
func (fp Footprint) Validate() error {
	if len(fp.Risks) != len(fp.Pairs) || len(fp.Keys) != len(fp.Pairs) {
		return fmt.Errorf("footprint has %d triplets, %d risk lists and %d key lists", len(fp.Pairs), len(fp.Risks), len(fp.Keys))
	}
	for i := 1; i < len(fp.Pairs); i++ {
		if fp.Pairs[i-1].Compare(fp.Pairs[i]) >= 0 {
			return fmt.Errorf("footprint triplet %d (%v) does not ascend past %v", i, fp.Pairs[i], fp.Pairs[i-1])
		}
	}
	return nil
}

// OnSwitch returns the run of the deployment's footprint on one switch:
// sub-slices of its Pairs, Risks and Keys.
func (d *Deployment) OnSwitch(sw object.ID) Footprint {
	fp := d.Footprint
	lo, _ := slices.BinarySearchFunc(fp.Pairs, sw, func(sp SwitchPair, sw object.ID) int {
		return cmp.Compare(sp.Switch, sw)
	})
	hi := lo
	for hi < len(fp.Pairs) && fp.Pairs[hi].Switch == sw {
		hi++
	}
	return Footprint{Pairs: fp.Pairs[lo:hi], Risks: fp.Risks[lo:hi], Keys: fp.Keys[lo:hi]}
}

// appendNew appends the refs that risks does not hold yet. The lists are a
// handful of refs long, so a scan beats a set.
func appendNew(risks, refs []object.Ref) []object.Ref {
	for _, ref := range refs {
		if !slices.Contains(risks, ref) {
			risks = append(risks, ref)
		}
	}
	return risks
}

// SwitchPair identifies an EPG pair deployed on a specific switch — the
// affected-element granularity of the controller risk model.
type SwitchPair struct {
	Switch object.ID
	Pair   policy.EPGPair
}

// String renders the triplet like "S2:3-4".
func (sp SwitchPair) String() string {
	b := append(make([]byte, 0, 24), 'S')
	b = strconv.AppendUint(b, uint64(sp.Switch), 10)
	b = append(b, ':')
	return string(sp.Pair.AppendTo(b))
}

// Compare orders triplets by switch, then pair.
func (sp SwitchPair) Compare(other SwitchPair) int {
	return cmp.Or(cmp.Compare(sp.Switch, other.Switch), sp.Pair.Compare(other.Pair))
}

// Compile renders the policy onto the topology. The policy must validate.
//
// A rule's Key names its EPG pair and a pair names the switches it lands
// on, so a key bound twice (two contracts of one pair sharing a filter
// entry) is a duplicate on every one of those switches. One Provenance
// lookup per rule therefore settles identity for the whole deployment: the
// first binding's provenance is the key's, and only a fresh key joins its
// pair's Keys. Every instance still joins its switches' lists — which
// of a key's instances survives there is the sort's choice (rule.Sort) —
// and duplicates end up adjacent, where finishSwitch drops them.
func Compile(p *policy.Policy, t *topo.Topology) (*Deployment, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if err := t.Validate(p); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}

	switches := t.Switches()
	slot := make(map[object.ID]int, len(switches))
	for i, sw := range switches {
		slot[sw] = i
	}
	// First pass: resolve each binding's footprint — the slots of the
	// switches its pair lands on, found once per pair — and count the rules
	// it will emit per switch, so the second pass appends into lists of
	// their final capacity.
	footprints := make([][]int, len(p.Bindings))
	byPair := make(map[policy.EPGPair]*pairFootprint)
	emitted := make([]int, len(switches))
	for bi, b := range p.Bindings {
		pair := policy.MakeEPGPair(b.From, b.To)
		pf, ok := byPair[pair]
		if !ok {
			pf = &pairFootprint{}
			for _, sw := range t.SwitchesForPair(b.From, b.To) {
				pf.slots = append(pf.slots, slot[sw])
			}
			byPair[pair] = pf
		}
		footprint := pf.slots
		footprints[bi] = footprint
		n := 0
		for _, fid := range p.Contracts[b.Contract].Filters {
			n += len(p.Filters[fid].Entries)
		}
		if b.From != b.To {
			n *= 2 // one rule per direction
		}
		for _, i := range footprint {
			emitted[i] += n
		}
	}
	lists := make([][]rule.Rule, len(switches))
	for i, n := range emitted {
		lists[i] = make([]rule.Rule, 0, n+1) // and the default-deny tail
	}

	d := &Deployment{
		BySwitch:   make(map[object.ID][]rule.Rule, len(switches)),
		Provenance: make(map[rule.Key][]object.Ref),
	}
	for bi, b := range p.Bindings {
		footprint := footprints[bi]
		if len(footprint) == 0 {
			continue // pair has no attached endpoints anywhere
		}
		from := p.EPGs[b.From]
		pf := byPair[policy.MakeEPGPair(b.From, b.To)]
		for _, fid := range p.Contracts[b.Contract].Filters {
			seen := len(pf.keys)
			prov := []object.Ref{
				object.VRF(from.VRF),
				object.EPG(b.From),
				object.EPG(b.To),
				object.Contract(b.Contract),
				object.Filter(fid),
			}
			object.SortRefs(prov)
			for _, entry := range p.Filters[fid].Entries {
				dirs, n := directionalRules(from.VRF, b.From, b.To, entry, prov)
				for _, dir := range dirs[:n] {
					key := dir.Key()
					if _, dup := d.Provenance[key]; !dup {
						d.Provenance[key] = prov
						pf.keys = append(pf.keys, key)
					}
					for _, i := range footprint {
						lists[i] = append(lists[i], dir)
					}
				}
			}
			if len(pf.keys) > seen {
				// The filter's fresh keys all carry prov: this is where a
				// walk of the pair's keys first meets its refs.
				pf.risks = appendNew(pf.risks, prov)
			}
		}
	}

	// The switches' lists are independent: sort and dedupe them on as many
	// goroutines as there are processors to run them.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(lists)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(lists); i = int(next.Add(1)) - 1 {
				lists[i] = finishSwitch(lists[i])
			}
		}()
	}
	wg.Wait()
	for i, sw := range switches {
		d.BySwitch[sw] = lists[i]
	}
	d.Footprint = layOut(byPair, switches)
	return d, nil
}

// pairFootprint is what Compile learns about one EPG pair: the slots of
// the switches it lands on, the keys its bindings introduce (a key bound
// twice counted once), and the refs those keys carry, each once — both in
// the order the bindings introduce them.
type pairFootprint struct {
	slots []int
	keys  []rule.Key
	risks []object.Ref
}

// layOut arranges the pairs that got rules into the deployment's
// Footprint: one sort of the pairs, dealt out to their switches in that
// order, the switches' runs laid end to end. switches is ascending.
func layOut(byPair map[policy.EPGPair]*pairFootprint, switches []object.ID) Footprint {
	pairs := make([]policy.EPGPair, 0, len(byPair))
	start := make([]int, len(switches)+1)
	for pair, pf := range byPair {
		if len(pf.risks) == 0 {
			continue // no rule, or no switch to put one on
		}
		pairs = append(pairs, pair)
		for _, i := range pf.slots {
			start[i+1]++
		}
	}
	slices.SortFunc(pairs, policy.EPGPair.Compare)
	for i := range switches {
		start[i+1] += start[i]
	}
	fp := Footprint{
		Pairs: make([]SwitchPair, start[len(switches)]),
		Risks: make([][]object.Ref, start[len(switches)]),
		Keys:  make([][]rule.Key, start[len(switches)]),
	}
	next := start[:len(switches)]
	for _, pair := range pairs {
		pf := byPair[pair]
		for _, i := range pf.slots {
			fp.Pairs[next[i]] = SwitchPair{Switch: switches[i], Pair: pair}
			fp.Risks[next[i]] = pf.risks
			fp.Keys[next[i]] = pf.keys
			next[i]++
		}
	}
	return fp
}

// finishSwitch turns the rules emitted for one switch into its logical rule
// list: the default-deny tail added, sorted, and each key kept once. Every
// compiled rule has EntryPriority and no wildcard, so rules sharing a key
// sort next to each other and the first of a run is the one a key-set
// dedupe of the sorted list keeps (the tests hold it to oracle.Dedupe).
func finishSwitch(rules []rule.Rule) []rule.Rule {
	rules = append(rules, rule.DefaultDeny())
	rule.Sort(rules)
	return slices.CompactFunc(rules, func(a, b rule.Rule) bool { return a.Key() == b.Key() })
}

// directionalRules builds the direction rules for a filter entry between
// EPGs a and b: dirs[:n], two of them, or one when a == b (intra-EPG
// contract).
func directionalRules(vrf, a, b object.ID, e policy.FilterEntry, prov []object.Ref) (dirs [2]rule.Rule, n int) {
	mk := func(src, dst object.ID) rule.Rule {
		return rule.Rule{
			Match: rule.Match{
				VRF:    vrf,
				SrcEPG: src,
				DstEPG: dst,
				Proto:  e.Proto,
				PortLo: e.PortLo,
				PortHi: e.PortHi,
			},
			Action:     e.Action,
			Priority:   EntryPriority,
			Provenance: prov,
		}
	}
	if a == b {
		return [2]rule.Rule{mk(a, b)}, 1
	}
	return [2]rule.Rule{mk(a, b), mk(b, a)}, 2
}

// RulesFor returns the logical rules for a single switch (nil if unknown).
func (d *Deployment) RulesFor(sw object.ID) []rule.Rule {
	return d.BySwitch[sw]
}
