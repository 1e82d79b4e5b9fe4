// Risk-model construction from a compiled deployment, and augmentation
// with the missing rules produced by the L-T equivalence checker (§III-C).

package risk

import (
	"fmt"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
)

// BuildSwitchModel constructs the switch risk model for a single switch
// (paper Figure 4(a)): elements are the EPG pairs deployed on the switch,
// risks are the policy objects each pair's rules depend on.
func BuildSwitchModel(d *compile.Deployment, sw object.ID) *Model {
	// Elements go in in sorted pair order: element IDs are dense insertion
	// indices, and every downstream localization tie-break follows them.
	// The deployment's footprint has this switch's pairs as one sorted run
	// with each pair's risks already gathered, so the build reads its own
	// pairs and nothing else.
	fp := d.OnSwitch(sw)
	m := newModelSized(fmt.Sprintf("switch-%d", sw), len(fp.Pairs))
	for i, sp := range fp.Pairs {
		m.addElement(sp.Pair.String(), fp.Risks[i])
	}
	return m
}

// BuildAnnotatedSwitchModel builds the switch risk model for sw and marks
// it in place with the switch's missing rules.
//
// Deprecated: the analyzer builds each switch model once per deployment
// (BuildSwitchModel) and annotates a fresh Overlay per analysis. It stays
// until bench/ stops calling it (ROADMAP item 1, shims).
func BuildAnnotatedSwitchModel(d *compile.Deployment, sw object.ID, missing []rule.Rule) *Model {
	m := BuildSwitchModel(d, sw)
	AugmentSwitchModel(m, missing, d.Provenance)
	return m
}

// ControllerModelOptions configures controller-model construction.
type ControllerModelOptions struct {
	// IncludeSwitchRisk adds each triplet's switch as a shared risk, so
	// that whole-switch failures (unresponsive switch, §V-B use case 3)
	// are localizable to the physical object.
	IncludeSwitchRisk bool
}

// BuildControllerModel constructs the controller risk model (paper Figure
// 4(b)): elements are (switch, EPG pair) triplets across the whole fabric;
// risks are the policy objects each pair relies on in that switch, plus
// optionally the switch itself. Elements go in in the footprint's sorted
// order — ascending switch, then pair — reading the risk list the
// deployment's footprint already holds per pair.
func BuildControllerModel(d *compile.Deployment, opts ControllerModelOptions) *Model {
	fp := d.Footprint()
	m := newModelSized("controller", len(fp.Pairs))
	for i, sp := range fp.Pairs {
		el := m.addElement(sp.String(), fp.Risks[i])
		if opts.IncludeSwitchRisk {
			m.AddEdge(el, object.Switch(sp.Switch))
		}
	}
	return m
}

// BuildControllerModelParallel is BuildControllerModel; workers is ignored.
//
// Deprecated: the build sharded by switch stopped paying once the
// footprint carried per-pair risk lists — its merge pass cost what the
// serial build does. It stays until bench/ stops calling it (ROADMAP item
// 1, shims).
func BuildControllerModelParallel(d *compile.Deployment, opts ControllerModelOptions, workers int) *Model {
	return BuildControllerModel(d, opts)
}

// AugmentSwitchModel marks failures in a switch risk model from the
// missing rules the equivalence checker reported for that switch. For
// every missing rule, the EPG pair it serves becomes an observation and
// the edges to all objects in the rule's provenance are flagged fail. m
// may be a mutable model or an overlay.
func AugmentSwitchModel(m Marker, missing []rule.Rule, prov map[rule.Key][]object.Ref) {
	for _, r := range missing {
		pair := policy.MakeEPGPair(r.Match.SrcEPG, r.Match.DstEPG)
		el, ok := m.ElementByLabel(pair.String())
		if !ok {
			continue // rule for a pair not modeled on this switch
		}
		for _, ref := range provenanceOf(r, prov) {
			m.MarkFailed(el, ref)
		}
	}
}

// Patch is an ordered list of failure marks computed against a read-only
// View, replayable into a Marker with Apply. It decouples computing
// controller-model augmentation (per-switch, read-only, safe to fan out)
// from applying it (serial, in ascending switch-ID order), which is what
// lets the analyzer's fold stage parallelize everything but the final
// O(failures) replay.
type Patch struct {
	marks []patchMark
}

type patchMark struct {
	el  ElementID
	ref object.Ref
}

// Apply replays the marks into m in recorded order.
func (p *Patch) Apply(m Marker) {
	for _, mk := range p.marks {
		m.MarkFailed(mk.el, mk.ref)
	}
}

// AugmentControllerModelPatch computes the failure marks one switch's
// missing rules make in the controller risk model, without mutating the
// view: each implicated triplet's edge to the rule's provenance objects —
// and to its switch risk, when modeled — is flagged fail. It only reads v,
// so patches for distinct switches compute concurrently against a shared
// pristine view; replaying them with Apply in ascending switch-ID order is
// equivalent to marking switch by switch (marking never creates elements,
// and never creates switch risks — the only base state the computation
// reads).
func AugmentControllerModelPatch(v View, sw object.ID, missing []rule.Rule, prov map[rule.Key][]object.Ref) *Patch {
	p := &Patch{}
	_, hasSwitchRisk := v.RiskByRef(object.Switch(sw))
	for _, r := range missing {
		pair := policy.MakeEPGPair(r.Match.SrcEPG, r.Match.DstEPG)
		sp := compile.SwitchPair{Switch: sw, Pair: pair}
		el, ok := v.ElementByLabel(sp.String())
		if !ok {
			continue
		}
		for _, ref := range provenanceOf(r, prov) {
			p.marks = append(p.marks, patchMark{el: el, ref: ref})
		}
		if hasSwitchRisk {
			p.marks = append(p.marks, patchMark{el: el, ref: object.Switch(sw)})
		}
	}
	return p
}

func provenanceOf(r rule.Rule, prov map[rule.Key][]object.Ref) []object.Ref {
	if len(r.Provenance) > 0 {
		return r.Provenance
	}
	if prov == nil {
		return nil
	}
	return prov[r.Key()]
}
