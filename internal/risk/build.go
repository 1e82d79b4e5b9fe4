// Risk-model construction from a compiled deployment, and augmentation
// with the missing rules produced by the L-T equivalence checker (§III-C).

package risk

import (
	"fmt"
	"slices"
	"sort"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
)

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
// triplets, viewed through SwitchMarks.View. It refuses, with a footprint
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

// SwitchMarks are the failed edges one switch's missing rules mark in a
// pristine model (§III-C): for every missing rule, the triplet it serves
// on the switch becomes an observation, and its edges to every object in
// the rule's provenance fail. Computing them only reads the model, so the
// marks of distinct switches compute concurrently.
type SwitchMarks struct {
	base *Model
	sw   object.ID

	// own are the switch view's marks, and ctrl the controller view's: own
	// and, when the model has the switch's risk, each observation's edge
	// to it. Both ascend by element, then risk, in the model's element
	// numbering; risk NumRisks()+k of the model is extra[k], a risk the
	// rules create, numbered in the order they first name it.
	own, ctrl []Mark
	extra     []object.Ref
}

// MarkSwitch computes the marks switch sw's missing rules make in base. A
// rule's provenance is its own list, or else prov's entry for its key; a
// rule serving a triplet base lacks marks nothing.
func MarkSwitch(base *Model, sw object.ID, missing []rule.Rule, prov map[rule.Key][]object.Ref) *SwitchMarks {
	s := &SwitchMarks{base: base, sw: sw}
	nb := RiskID(len(base.refs))
	var observed []ElementID
	var last compile.SwitchPair
	seg := 0 // the marks since the last rule of another triplet
	for _, r := range missing {
		sp := compile.SwitchPair{Switch: sw, Pair: policy.MakeEPGPair(r.Match.SrcEPG, r.Match.DstEPG)}
		if len(observed) == 0 || sp != last {
			el, ok := base.ElementOf(sp)
			if !ok {
				continue
			}
			observed, last, seg = append(observed, el), sp, len(s.own)
		}
		el := observed[len(observed)-1]
		for _, ref := range provenanceOf(r, prov) {
			id, ok := base.RiskByRef(ref)
			if !ok {
				id = nb + indexOf(&s.extra, ref)
			}
			// A triplet's rules are mostly consecutive and share refs: a
			// repeat within the run is dropped here, the rest by the sort.
			if mk := (Mark{el, id}); !slices.Contains(s.own[seg:], mk) {
				s.own = append(s.own, mk)
			}
		}
	}
	slices.SortFunc(s.own, Mark.compare)
	s.own = slices.Clip(slices.Compact(s.own))
	s.ctrl = s.own
	if r, ok := base.RiskByRef(object.Switch(sw)); ok && len(observed) > 0 {
		slices.Sort(observed)
		observed = slices.Compact(observed)
		switched := make([]Mark, len(observed))
		for i, el := range observed {
			switched[i] = Mark{el, r}
		}
		s.ctrl = union(s.own, switched)
	}
	return s
}

// View returns the switch's own view (paper Figure 4(a)): an overlay over
// the switch's range of the model, its marks without their edges to the
// switch's risk, which localization on it thus never picks, and the risks
// they create numbered in the switch's order.
func (s *SwitchMarks) View() *Overlay {
	pairs := s.base.pairs
	lo := sort.Search(len(pairs), func(i int) bool { return pairs[i].Switch >= s.sw })
	hi := sort.Search(len(pairs), func(i int) bool { return pairs[i].Switch > s.sw })
	return &Overlay{base: s.base, lo: ElementID(lo), hi: ElementID(hi), marks: s.own, extra: slices.Clip(s.extra)}
}

// BuildAnnotatedSwitchModel builds sw's switch risk model on its own,
// marks it with the switch's missing rules, and returns its view folded
// into a model.
//
// Deprecated: the analyzer localizes each switch on its range of the
// controller model, annotated afresh per analysis. It stays until bench/
// stops calling it (ROADMAP item 1, shims).
func BuildAnnotatedSwitchModel(d *compile.Deployment, sw object.ID, missing []rule.Rule) *Model {
	return MarkSwitch(NewModel(fmt.Sprintf("switch-%d", sw), d.OnSwitch(sw)), sw, missing, d.Provenance).View().fold()
}

// Patch is one switch's controller-view marks, replayable into an
// overlay with Apply.
//
// Deprecated: NewOverlay joins the switches' marks. It stays until bench/
// stops calling it (ROADMAP item 1, shims).
type Patch struct {
	marks *SwitchMarks
}

// Apply merges the patch's marks into o, an overlay over the same model
// that views the switch's elements.
//
// Deprecated: see Patch.
func (p *Patch) Apply(o *Overlay) { o.add(p.marks.ctrl, p.marks.extra) }

// AugmentControllerModelPatch is MarkSwitch against o's base.
//
// Deprecated: see Patch.
func AugmentControllerModelPatch(o *Overlay, sw object.ID, missing []rule.Rule, prov map[rule.Key][]object.Ref) *Patch {
	return &Patch{MarkSwitch(o.base, sw, missing, prov)}
}

// indexOf returns ref's index in refs, appending it when absent.
func indexOf(refs *[]object.Ref, ref object.Ref) RiskID {
	k := slices.Index(*refs, ref)
	if k < 0 {
		k = len(*refs)
		*refs = append(*refs, ref)
	}
	return RiskID(k)
}

func provenanceOf(r rule.Rule, prov map[rule.Key][]object.Ref) []object.Ref {
	if len(r.Provenance) > 0 {
		return r.Provenance
	}
	return prov[r.Key()]
}
