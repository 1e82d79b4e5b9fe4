// Fault scenario generation: which objects fail, and which deployed rules
// each failure removes.
//
// The paper's simulation setup (§VI-A) injects two fault types with equal
// weight: full object faults (every TCAM rule derived from the object goes
// missing) and partial object faults (only a subset goes missing — the
// regime where SCORE's fixed hit-ratio threshold fails and SCOUT's
// change-log stage recovers accuracy). A scenario's Missing rules are
// exactly what the equivalence check would report (Generate's filters have
// disjoint port ranges, so no other rule covers a removed one), so an
// experiment marks them through the pipeline's own risk-model augmentation
// without writing TCAMs and checking them in large simulations.

package workload

import (
	"fmt"
	"math/rand"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/rule"
)

// Instance is one deployed logical rule: a rule key serving an EPG pair on
// a switch.
type Instance struct {
	SP  compile.SwitchPair
	Key rule.Key
}

// DepIndex maps every policy object to the deployed rule instances whose
// provenance contains it. A switch's index is BuildIndex over its run of
// the footprint (Deployment.OnSwitch) and the deployment's provenance: the
// whole index's instances on that switch, in the same order.
type DepIndex struct {
	byObject map[object.Ref][]Instance
}

// BuildIndex constructs the object → instances index for a deployment.
// Instances are listed in (switch, pair) order, then in the pair's key
// order, so two builds of one deployment are identical and a seeded draw
// from Instances damages the same rules every run.
func BuildIndex(d *compile.Deployment) *DepIndex {
	// A pair's consecutive keys mostly come from one (binding, filter) and
	// share its provenance slice. The first pass cuts the keys into such
	// runs, resolves each run's objects to list slots once, and counts the
	// instances every slot will hold; the second fills lists of that size.
	type run struct {
		sp    compile.SwitchPair
		keys  []rule.Key
		slots []int
	}
	var runs []run
	slotOf := make(map[object.Ref]int)
	var counts []int
	fp := d.Footprint
	for pi, sp := range fp.Pairs {
		keys := fp.Keys[pi]
		var prov []object.Ref
		for i, k := range keys {
			p := d.Provenance[k]
			if i == 0 || len(p) != len(prov) || (len(p) > 0 && &p[0] != &prov[0]) {
				prov = p
				slots := make([]int, len(p))
				for j, ref := range p {
					slot, ok := slotOf[ref]
					if !ok {
						slot = len(counts)
						slotOf[ref] = slot
						counts = append(counts, 0)
					}
					slots[j] = slot
				}
				runs = append(runs, run{sp: sp, keys: keys[i:i], slots: slots})
			}
			r := &runs[len(runs)-1]
			r.keys = r.keys[:len(r.keys)+1]
			for _, slot := range r.slots {
				counts[slot]++
			}
		}
	}
	lists := make([][]Instance, len(counts))
	for slot, n := range counts {
		lists[slot] = make([]Instance, 0, n)
	}
	for _, r := range runs {
		for _, k := range r.keys {
			inst := Instance{SP: r.sp, Key: k}
			for _, slot := range r.slots {
				lists[slot] = append(lists[slot], inst)
			}
		}
	}
	idx := &DepIndex{byObject: make(map[object.Ref][]Instance, len(lists))}
	for ref, slot := range slotOf {
		idx.byObject[ref] = lists[slot]
	}
	return idx
}

// Objects returns all policy objects with at least one deployed rule,
// sorted.
func (idx *DepIndex) Objects() []object.Ref {
	out := make([]object.Ref, 0, len(idx.byObject))
	for ref := range idx.byObject {
		out = append(out, ref)
	}
	object.SortRefs(out)
	return out
}

// Instances returns the deployed rule instances depending on ref.
func (idx *DepIndex) Instances(ref object.Ref) []Instance { return idx.byObject[ref] }

// Fault is one injected object fault. Fraction 1 is a full object fault;
// less than 1 a partial object fault.
type Fault struct {
	Ref      object.Ref
	Fraction float64
}

// IsFull reports whether the fault removes every dependent rule.
func (f Fault) IsFull() bool { return f.Fraction >= 1 }

// String renders the fault for logs.
func (f Fault) String() string {
	if f.IsFull() {
		return fmt.Sprintf("full(%s)", f.Ref)
	}
	return fmt.Sprintf("partial(%s,%.2f)", f.Ref, f.Fraction)
}

// Scenario is a reproducible multi-fault experiment input.
type Scenario struct {
	// Faults are the injected object faults.
	Faults []Fault
	// GroundTruth is the set G of truly faulty objects.
	GroundTruth []object.Ref
	// Changed simulates the controller change log: it contains every
	// faulty object (the paper's evaluation ties faults to recent
	// configuration actions) plus noise entries for healthy objects.
	Changed object.Set
}

// NewScenario samples n distinct object faults from the candidate set
// (full/partial with equal weight, per §VI-A) plus noiseCount healthy
// recently-changed objects.
func NewScenario(rng *rand.Rand, candidates []object.Ref, n, noiseCount int) (Scenario, error) {
	if n > len(candidates) {
		return Scenario{}, fmt.Errorf("workload: want %d faults but only %d candidate objects", n, len(candidates))
	}
	perm := rng.Perm(len(candidates))
	sc := Scenario{Changed: make(object.Set)}
	for i := 0; i < n; i++ {
		ref := candidates[perm[i]]
		f := Fault{Ref: ref, Fraction: 1}
		if rng.Intn(2) == 0 {
			f.Fraction = 0.1 + 0.8*rng.Float64()
		}
		sc.Faults = append(sc.Faults, f)
		sc.GroundTruth = append(sc.GroundTruth, ref)
		sc.Changed.Add(ref)
	}
	for i := n; i < len(perm) && i < n+noiseCount; i++ {
		sc.Changed.Add(candidates[perm[i]])
	}
	object.SortRefs(sc.GroundTruth)
	return sc, nil
}

// Missing draws the rules the scenario's faults remove from the instances
// idx lists, by switch: all of a full fault's instances, a random part of
// a partial fault's, drawn from rng in fault order. A rule carries only
// its key; the deployment's provenance names the objects it came from.
func (sc Scenario) Missing(idx *DepIndex, rng *rand.Rand) map[object.ID][]rule.Rule {
	missing := make(map[object.ID][]rule.Rule)
	for _, f := range sc.Faults {
		for _, in := range selectInstances(idx.Instances(f.Ref), f, rng) {
			missing[in.SP.Switch] = append(missing[in.SP.Switch], rule.Rule{Match: in.Key.Match, Action: in.Key.Action})
		}
	}
	return missing
}

// selectInstances picks the instances a fault damages: all of them for a
// full fault, a random non-empty subset for a partial fault.
func selectInstances(instances []Instance, f Fault, rng *rand.Rand) []Instance {
	if len(instances) == 0 {
		return nil
	}
	if f.IsFull() {
		return instances
	}
	n := int(float64(len(instances)) * f.Fraction)
	if n < 1 {
		n = 1
	}
	if n >= len(instances) {
		n = len(instances) - 1 // partial fault must leave something intact
		if n < 1 {
			n = 1
		}
	}
	shuffled := make([]Instance, len(instances))
	copy(shuffled, instances)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return shuffled[:n]
}
