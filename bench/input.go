package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"scout"
	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/workload"
)

// structureSeed fixes the fabric's shape. The policy generator's own seed
// moves the compiled rule count between 46k and 89k at this spec, which
// is a 2x swing in every latency; a benchmark whose -seed did that could
// not hold a 10% bound across seeds. So the shape is pinned and -seed
// draws what varies between otherwise equal runs: the fabric's RNG, which
// objects fail, and where the churn and storm windows fall.
const structureSeed = 42

// windowRules is the size of one eviction window (rules per switch per
// churn op, and per switch visit in the storm).
const windowRules = 4

// windowBandPct is the share of a switch's eligible rules, centred on the
// middle, that a seed may start its first window in.
const windowBandPct = 10

// benchSpec is the production spec scaled by 0.25. It is spelled out here
// so a change to eval.SimSpec cannot silently move the baseline. Under
// structureSeed it compiles to 8 switches, 1,504 EPG pairs and 46,216
// TCAM rules.
func benchSpec() workload.Spec {
	return workload.Spec{
		Name:                  "production-x0.25",
		Switches:              8,
		VRFs:                  6,
		EPGs:                  154,
		Contracts:             97,
		Filters:               40,
		TargetPairs:           5000,
		EndpointsPerEPGMax:    3,
		SwitchesPerEPGMax:     3,
		HeavyContractFrac:     0.2,
		FiltersPerContractMax: 3,
		EntriesPerFilterMax:   3,
		EPGZipfExponent:       0.8,
		VRFWeights:            []float64{0.45, 0.20, 0.12, 0.10, 0.08, 0.05},
	}
}

// faultSlot is one entry of the permanent fault set: an object kind, the
// fraction of its rules that go missing, and the band of the kind's
// objects (ranked by deployed rule instances, as fractions of the ranked
// list) the seed may draw it from. Bands are narrow and sit in the middle
// of a heavy-tailed distribution so every seed loses a similar number of
// rules; drawing from the whole list would move the missing-rule count
// from tens to thousands.
type faultSlot struct {
	kind     object.Kind
	fraction float64
	lo, hi   float64
}

var faultSlots = []faultSlot{
	{object.KindContract, 1.0, 0.42, 0.50},
	{object.KindContract, 1.0, 0.50, 0.58},
	{object.KindContract, 1.0, 0.58, 0.66},
	{object.KindFilter, 1.0, 0.42, 0.50},
	{object.KindContract, 0.5, 0.68, 0.74},
}

// env is one generated benchmark input, deployed and faulted: everything
// a workload needs that does not depend on which workload it is.
type env struct {
	spec   workload.Spec
	seed   int64
	fabric *scout.Fabric
	dep    *scout.Deployment
	// switches is the ascending switch list.
	switches []object.ID
	// faults is the injected permanent fault set; truth is its object
	// list, the ground truth recall and precision are scored against.
	faults []workload.Fault
	truth  []object.Ref
	// windows[i][k] is the k'th eviction window of switches[i]: rules
	// installed after fault injection, in a seeded rotation of the
	// switch's TCAM order. Window 0 is evicted during set-up.
	windows [][][]rule.Rule
	// stormStart rotates which switch pair the storm visits first.
	stormStart int
	digest     string
}

// buildEnv generates, deploys and faults the fabric for a seed. windows
// is how many eviction windows to schedule per switch.
func buildEnv(spec workload.Spec, seed int64, windows int) (*env, error) {
	e := &env{spec: spec, seed: seed}
	pol, topo, err := scout.GenerateWorkload(spec, structureSeed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: seed, TCAMCapacity: 1 << 17})
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if err := f.Deploy(); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if n := f.FaultLog().Len(); n != 0 {
		return nil, fmt.Errorf("baseline deploy raised %d device faults; it must deploy clean", n)
	}
	e.fabric, e.dep = f, f.Deployment()
	e.switches = append(e.switches, topo.Switches()...)
	slices.Sort(e.switches)

	rng := rand.New(rand.NewSource(seed))
	idx := workload.BuildIndex(e.dep)
	if err := e.injectFaults(rng, idx); err != nil {
		return nil, err
	}
	if err := e.scheduleWindows(rng, idx, windows); err != nil {
		return nil, err
	}
	e.stormStart = rng.Intn(len(e.switches))

	polJSON, err := json.Marshal(pol)
	if err != nil {
		return nil, fmt.Errorf("policy json: %w", err)
	}
	e.digest = e.computeDigest(polJSON)
	return e, nil
}

// injectFaults draws one object per fault slot and injects the set with
// fabric.InjectObjectFault, which also records the change-log entry that
// SCOUT's second stage finds a partial fault through.
//
// A draw is rejected when it is ambiguous by construction (see separable):
// on such a draw precision would depend on the draw, not on the program.
// The test reads the deployment index only. It never runs the code under
// test, so a localize or risk regression lowers hypothesis_recall and
// hypothesis_precision instead of changing which draw is accepted.
func (e *env) injectFaults(rng *rand.Rand, idx *workload.DepIndex) error {
	ranked := map[object.Kind][]object.Ref{}
	for _, ref := range idx.Objects() {
		ranked[ref.Kind] = append(ranked[ref.Kind], ref)
	}
	for _, refs := range ranked {
		sort.SliceStable(refs, func(i, j int) bool {
			return len(idx.Instances(refs[i])) < len(idx.Instances(refs[j]))
		})
	}
	var drawn []object.Ref
	for attempt := 0; ; attempt++ {
		if attempt == 64 {
			return fmt.Errorf("no separable fault set within the bands after %d draws", attempt)
		}
		drawn = drawn[:0]
		for _, slot := range faultSlots {
			refs := ranked[slot.kind]
			lo, hi := int(slot.lo*float64(len(refs))), int(slot.hi*float64(len(refs)))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > len(refs) {
				return fmt.Errorf("fault slot %v: only %d %v objects deployed", slot, len(refs), slot.kind)
			}
			drawn = append(drawn, refs[lo+rng.Intn(hi-lo)])
		}
		if separable(e.dep, idx, drawn) {
			break
		}
	}
	for i, ref := range drawn {
		if _, err := e.fabric.InjectObjectFault(ref, faultSlots[i].fraction); err != nil {
			return fmt.Errorf("inject %s: %w", ref, err)
		}
		e.faults = append(e.faults, workload.Fault{Ref: ref, Fraction: faultSlots[i].fraction})
		e.truth = append(e.truth, ref)
	}
	object.SortRefs(e.truth)
	return nil
}

// separable reports whether a fault set has one right answer. The
// controller risk model's elements are (switch, EPG pair) triplets; an
// element fails for an object when a rule carrying the object is missing
// there; and SCOUT names, largest first, the objects whose every element
// has failed. So two things make a draw ambiguous, and both can be read off
// the index (a partial fault is taken to lose every rule, which only makes
// the test stricter):
//
//   - two drawn objects share an element (a drawn contract and a drawn
//     filter it uses): the larger one is named first and explains the
//     other's failures;
//   - an object that was not drawn fails on every element it has, and no
//     drawn object has strictly more elements than it to be named first
//     (a filter whose only user is a drawn contract, an EPG whose only pair
//     is under one): SCOUT rightly names it too.
//
// Three of the first ten seeds drew the second case before this test was
// added, and precision read 0.83 or 0.71 there.
func separable(d *compile.Deployment, idx *workload.DepIndex, drawn []object.Ref) bool {
	elements := func(ref object.Ref) map[compile.SwitchPair]bool {
		out := map[compile.SwitchPair]bool{}
		for _, in := range idx.Instances(ref) {
			out[in.SP] = true
		}
		return out
	}
	isDrawn := map[object.Ref]bool{}
	drawnElements := make([]map[compile.SwitchPair]bool, len(drawn))
	touched := map[compile.SwitchPair]bool{}
	for i, ref := range drawn {
		isDrawn[ref] = true
		drawnElements[i] = elements(ref)
		for sp := range drawnElements[i] {
			if touched[sp] {
				return false
			}
			touched[sp] = true
		}
	}
	lost := func(key rule.Key) bool {
		for _, ref := range d.Provenance[key] {
			if isDrawn[ref] {
				return true
			}
		}
		return false
	}
objects:
	for _, ref := range idx.Objects() {
		if isDrawn[ref] {
			continue
		}
		all, failed := elements(ref), map[compile.SwitchPair]bool{}
		for _, in := range idx.Instances(ref) {
			if lost(in.Key) {
				failed[in.SP] = true
			}
		}
		if len(failed) < len(all) {
			continue // keeps a healthy element, so it is never named
		}
		for _, larger := range drawnElements {
			if len(larger) > len(all) && subset(all, larger) {
				continue objects
			}
		}
		return false
	}
	return true
}

func subset(a, b map[compile.SwitchPair]bool) bool {
	for sp := range a {
		if !b[sp] {
			return false
		}
	}
	return true
}

// scheduleWindows lays out n eviction windows per switch over allow rules
// still installed after fault injection, starting at a seeded offset so
// each seed evicts different rules while every window costs the same
// work. The offset is drawn from the middle windowBandPct of the list,
// not all of it: a re-check folds the switch's rules in priority order
// and re-does everything after the first changed rule, so its cost is
// proportional to how early the eviction lands. Offsets drawn from the
// whole list moved report_p50_ms by +-15% between seeds.
//
// Evictions are noise, not injected faults, so they must never complete
// an object's failure: SCOUT picks any object whose every dependent
// (switch, EPG pair) element has failed, and a run where a window
// happened to finish off a small object would score a lower precision
// than its neighbour for no reason the program controls. At most one
// window per switch is out at a time, so only rules whose provenance
// objects each keep more healthy elements than that many evictions can
// fail are eligible.
func (e *env) scheduleWindows(rng *rand.Rand, idx *workload.DepIndex, n int) error {
	installed := make(map[object.ID]map[rule.Key]struct{}, len(e.switches))
	for _, sw := range e.switches {
		s, err := e.fabric.Switch(sw)
		if err != nil {
			return err
		}
		installed[sw] = s.TCAM().Keys()
	}
	maxEvicted := windowRules * len(e.switches)
	robust := map[object.Ref]bool{}
	for _, ref := range idx.Objects() {
		all, failed := map[compile.SwitchPair]bool{}, map[compile.SwitchPair]bool{}
		for _, in := range idx.Instances(ref) {
			all[in.SP] = true
			if _, ok := installed[in.SP.Switch][in.Key]; !ok {
				failed[in.SP] = true
			}
		}
		robust[ref] = len(all)-len(failed) > maxEvicted
	}

	e.windows = make([][][]rule.Rule, len(e.switches))
	for i, sw := range e.switches {
		var eligible []rule.Rule
	rules:
		for _, r := range e.dep.RulesFor(sw) {
			if _, ok := installed[sw][r.Key()]; !ok || r.Action != rule.Allow {
				continue
			}
			for _, ref := range r.Provenance {
				if !robust[ref] {
					continue rules
				}
			}
			eligible = append(eligible, r)
		}
		if len(eligible) < n*windowRules {
			return fmt.Errorf("switch %d: %d eligible rules cannot hold %d windows of %d", sw, len(eligible), n, windowRules)
		}
		start := len(eligible)*(50-windowBandPct/2)/100 + rng.Intn(len(eligible)*windowBandPct/100+1)
		e.windows[i] = make([][]rule.Rule, n)
		for k := range e.windows[i] {
			w := make([]rule.Rule, windowRules)
			for j := range w {
				w[j] = eligible[(start+k*windowRules+j)%len(eligible)]
			}
			e.windows[i][k] = w
		}
	}
	return nil
}

// computeDigest is FNV-1a over the policy JSON, the fault set and the
// mutation schedule: two runs with equal digests analysed the same
// inputs in the same order.
func (e *env) computeDigest(polJSON []byte) string {
	h := fnv.New64a()
	h.Write(polJSON)
	fmt.Fprintf(h, "|seed=%d|storm=%d", e.seed, e.stormStart)
	for _, f := range e.faults {
		fmt.Fprintf(h, "|%s@%g", f.Ref, f.Fraction)
	}
	for i, ws := range e.windows {
		for k, w := range ws {
			fmt.Fprintf(h, "|%d.%d", e.switches[i], k)
			for _, r := range w {
				fmt.Fprintf(h, ",%s/%d", r.Match, r.Action)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rotate moves switch index i's eviction from window k-1 to window k:
// the rules evicted last time are reinstalled and the next window is
// evicted. emit, when non-nil, is told once per TCAM write, the way the
// switch's monitoring plane would report it.
func (e *env) rotate(i, k int, emit func(sw object.ID)) error {
	sw := e.switches[i]
	s, err := e.fabric.Switch(sw)
	if err != nil {
		return err
	}
	if k > 0 {
		for _, r := range e.windows[i][k-1] {
			if err := s.TCAM().Install(r); err != nil {
				return fmt.Errorf("switch %d: reinstall: %w", sw, err)
			}
			if emit != nil {
				emit(sw)
			}
		}
	}
	for _, r := range e.windows[i][k] {
		if !s.TCAM().Remove(r.Key()) {
			return fmt.Errorf("switch %d window %d: rule %s is not installed", sw, k, r)
		}
		if emit != nil {
			emit(sw)
		}
	}
	return nil
}

// state collects the fabric's current analysis input.
func (e *env) state() scout.State {
	return scout.State{
		Deployment: e.dep,
		TCAM:       e.fabric.CollectAll(),
		Changes:    e.fabric.ChangeLog(),
		Faults:     e.fabric.FaultLog(),
		Now:        e.fabric.Now(),
	}
}
