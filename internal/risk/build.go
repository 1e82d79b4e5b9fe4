// Risk-model construction from a compiled deployment, and augmentation
// with the missing rules produced by the L-T equivalence checker (§III-C).

package risk

import (
	"fmt"
	"slices"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
)

// BuildAnnotatedSwitchModel builds sw's switch risk model on its own,
// marks an overlay over it with the switch's missing rules, and returns
// the overlay folded into a model.
//
// Deprecated: the analyzer localizes each switch on a range of the
// controller model (NewSwitchOverlay), annotated afresh per analysis. It
// stays until bench/ stops calling it (ROADMAP item 1, shims).
func BuildAnnotatedSwitchModel(d *compile.Deployment, sw object.ID, missing []rule.Rule) *Model {
	o := NewOverlay(NewModel(fmt.Sprintf("switch-%d", sw), d.OnSwitch(sw)))
	AugmentSwitchModel(o, sw, missing, d.Provenance)
	return o.fold()
}

// ControllerModelOptions is the ignored argument of
// BuildControllerModelParallel.
//
// Deprecated: the controller model always carries switch risks. It stays
// until bench/ stops passing it (ROADMAP item 1, shims).
type ControllerModelOptions struct {
	IncludeSwitchRisk bool
}

// BuildControllerModel constructs the controller risk model (paper Figure
// 4(b)): elements are (switch, EPG pair) triplets across the whole fabric,
// in the footprint's sorted order — ascending switch, then pair; risks are
// the policy objects each pair relies on in that switch, then the switch
// itself, so that whole-switch failures (unresponsive switch, §V-B use
// case 3) are localizable to the physical object. It is the deployment's
// one risk model: a switch's model (Figure 4(a)) is the run of its
// triplets, viewed through NewSwitchOverlay. It refuses, with a footprint
// error, a footprint NewModel would refuse, or one whose risk list names a
// switch: the model adds each triplet's switch itself.
func BuildControllerModel(d *compile.Deployment) (*Model, error) {
	fp := d.Footprint
	n := len(fp.Pairs)
	for _, refs := range fp.Risks {
		n += len(refs)
	}
	// Every triplet's list and its switch, in one array.
	risks, flat := make([][]object.Ref, len(fp.Pairs)), make([]object.Ref, 0, n)
	for i, sp := range fp.Pairs {
		if k := slices.IndexFunc(fp.Risks[i], func(ref object.Ref) bool { return ref.Kind == object.KindSwitch }); k >= 0 {
			return nil, fmt.Errorf("footprint triplet %d (%v) names %v; the controller model adds its switch itself", i, sp, fp.Risks[i][k])
		}
		flat = append(append(flat, fp.Risks[i]...), object.Switch(sp.Switch))
		risks[i] = flat[len(flat)-len(fp.Risks[i])-1:]
	}
	return newModel("controller", compile.Footprint{Pairs: fp.Pairs, Risks: risks})
}

// BuildControllerModelParallel is BuildControllerModel, panicking on its
// error; opts and workers are ignored.
//
// Deprecated: the build sharded by switch stopped paying once the
// footprint carried per-pair risk lists — its merge pass cost what the
// serial build does. It stays until bench/ stops calling it (ROADMAP item
// 1, shims).
func BuildControllerModelParallel(d *compile.Deployment, opts ControllerModelOptions, workers int) *Model {
	m, err := BuildControllerModel(d)
	if err != nil {
		panic(err)
	}
	return m
}

// AugmentSwitchModel marks failures in an overlay from the missing rules
// the equivalence checker reported for switch sw. For every missing rule,
// the triplet it serves on sw becomes an observation and the edges to all
// objects in the rule's provenance are flagged fail. o may view the
// controller model or one switch's range of it: the lookup is
// AugmentControllerModelPatch's.
func AugmentSwitchModel(o *Overlay, sw object.ID, missing []rule.Rule, prov map[rule.Key][]object.Ref) {
	for _, r := range missing {
		if el, ok := implicated(o, sw, r); ok {
			for _, ref := range provenanceOf(r, prov) {
				o.MarkFailed(el, ref)
			}
		}
	}
}

// Patch is an ordered list of failure marks computed against a read-only
// View, replayable into an Overlay with Apply. It decouples computing
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

// Apply replays the marks into o in recorded order.
func (p *Patch) Apply(o *Overlay) {
	for _, mk := range p.marks {
		o.MarkFailed(mk.el, mk.ref)
	}
}

// AugmentControllerModelPatch computes the failure marks one switch's
// missing rules make in the controller risk model, without mutating the
// view: the marks AugmentSwitchModel makes, and each implicated triplet's
// edge to its switch risk, when modeled. It only reads v, so patches for
// distinct switches compute concurrently against a shared pristine view;
// replaying them with Apply in ascending switch-ID order is equivalent to
// marking switch by switch (marking never creates elements, and never
// creates switch risks — the only base state the computation reads).
func AugmentControllerModelPatch(v View, sw object.ID, missing []rule.Rule, prov map[rule.Key][]object.Ref) *Patch {
	p := &Patch{}
	_, hasSwitchRisk := v.RiskByRef(object.Switch(sw))
	for _, r := range missing {
		if el, ok := implicated(v, sw, r); ok {
			for _, ref := range provenanceOf(r, prov) {
				p.marks = append(p.marks, patchMark{el: el, ref: ref})
			}
			if hasSwitchRisk {
				p.marks = append(p.marks, patchMark{el: el, ref: object.Switch(sw)})
			}
		}
	}
	return p
}

// implicated returns the element of the triplet a missing rule of switch
// sw serves in v, if v models it: the one lookup both augmentations make.
func implicated(v View, sw object.ID, r rule.Rule) (ElementID, bool) {
	return v.ElementOf(compile.SwitchPair{Switch: sw, Pair: policy.MakeEPGPair(r.Match.SrcEPG, r.Match.DstEPG)})
}

func provenanceOf(r rule.Rule, prov map[rule.Key][]object.Ref) []object.Ref {
	if len(r.Provenance) > 0 {
		return r.Provenance
	}
	return prov[r.Key()]
}
