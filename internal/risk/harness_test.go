// The package's case runner. A case starts from a drawn footprint, which
// NewModel must refuse unless its triplets strictly ascend, or from a
// deployment's model. One stream of steps, read from an oracle.Choices,
// marks an overlay over that model: MarkFailed, AugmentSwitchModel,
// AugmentControllerModelPatch with Apply, both augmentations of one
// switch's rules side by side, and NewOverlay, which puts a fresh overlay
// over a new model, NewModel's build of the overlay's edges. The reference
// is a plain edge map in insertion order. After every step the model, the
// overlay and the overlay folded into a model must read as their
// references do, the model must be untouched and still hold the plan
// stored on it, and an overlay over the folded model must be refused once
// it carries a mark.

package risk_test

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
)

// op is one step of a run.
type op int

const (
	opMark op = iota
	opAugment
	opPatch
	opBoth
	opOverlay
)

var opNames = [...]string{"MarkFailed", "AugmentSwitchModel", "Patch.Apply", "both augmentations", "NewOverlay"}

var allOps = []op{opMark, opAugment, opPatch, opBoth, opOverlay}

type edge struct {
	el  risk.ElementID
	ref object.Ref
}

// refModel is the reference: element triplets in ID order, and a plain
// map of the edges to whether each failed, with their insertion order.
type refModel struct {
	name  string
	pairs []compile.SwitchPair
	order []edge
	edges map[edge]bool
}

func newRef(name string, pairs []compile.SwitchPair) *refModel {
	return &refModel{name: name, pairs: pairs, edges: map[edge]bool{}}
}

// add adds edge e if it is new, and marks it if failed.
func (r *refModel) add(e edge, failed bool) {
	was, ok := r.edges[e]
	if !ok {
		r.order = append(r.order, e)
	}
	r.edges[e] = failed || was
}

// risks returns the refs in the order an edge first named them: RiskID
// order.
func (r *refModel) risks() []object.Ref {
	var out []object.Ref
	for _, e := range r.order {
		if !slices.Contains(out, e.ref) {
			out = append(out, e.ref)
		}
	}
	return out
}

// elementsOf returns ref's dependents in edge order.
func (r *refModel) elementsOf(ref object.Ref) []risk.ElementID {
	var out []risk.ElementID
	for _, e := range r.order {
		if e.ref == ref {
			out = append(out, e.el)
		}
	}
	return out
}

func (r *refModel) failed() []edge {
	return slices.DeleteFunc(slices.Clone(r.order), func(e edge) bool { return !r.edges[e] })
}

// signature returns the sorted elements and refs of failed edges: the
// failure signature and the suspect set.
func (r *refModel) signature() (els []risk.ElementID, refs []object.Ref) {
	for _, e := range r.failed() {
		els, refs = append(els, e.el), append(refs, e.ref)
	}
	slices.Sort(els)
	slices.SortFunc(refs, object.Ref.Compare)
	return slices.Compact(els), slices.Compact(refs)
}

func (r *refModel) String() string {
	return fmt.Sprintf("risk model %q: %d elements, %d risks, %d edges (%d failed)",
		r.name, len(r.pairs), len(r.risks()), len(r.order), len(r.failed()))
}

// clone returns a copy of r.
func (r *refModel) clone() *refModel {
	return &refModel{name: r.name, pairs: r.pairs, order: slices.Clone(r.order), edges: maps.Clone(r.edges)}
}

// pristine returns r's elements and edges, none failed, the edges
// element-major: the order NewModel numbers risks and dependents in.
func (r *refModel) pristine() *refModel {
	p := newRef(r.name, r.pairs)
	order := slices.Clone(r.order)
	slices.SortStableFunc(order, func(a, b edge) int { return cmp.Compare(a.el, b.el) })
	for _, e := range order {
		p.add(e, false)
	}
	return p
}

// replay builds pristine r, whose edges are element-major, through
// NewModel: element i depends on the refs of its edges in r's order.
func (r *refModel) replay() *risk.Model {
	fp := compile.Footprint{Pairs: r.pairs, Risks: make([][]object.Ref, len(r.pairs))}
	for _, e := range r.order {
		fp.Risks[e.el] = append(fp.Risks[e.el], e.ref)
	}
	return risk.NewModel(r.name, fp)
}

// modelStats is what a run exercised.
type modelStats struct {
	created  int // overlay marks that created their edge
	remarked int // marks of an edge already failed
	resolved int // augmented rules whose provenance came from the map
	own      int // augmented rules whose own provenance is not the map's
	skipped  int // augmented rules for a triplet the model lacks
	refused  int // overlays refused over a folded, marked overlay
	unsorted int // drawn footprints NewModel refused
	switched int // switch-risk marks the patch made beside AugmentSwitchModel's
}

// refPool is what steps draw refs from besides the model's risks, and
// drawn rules their provenance from.
var refPool = []object.Ref{object.VRF(1), object.EPG(1), object.EPG(2), object.EPG(3), object.Contract(1),
	object.Contract(2), object.Filter(1), object.Filter(2), object.Filter(3), object.Filter(4), object.Switch(1), object.Switch(2)}

type harness struct {
	t         *testing.T
	c         *oracle.Choices
	d         *compile.Deployment
	prov      map[rule.Key][]object.Ref
	base      *risk.Model
	ov        *risk.Overlay
	twin, ovr *refModel // the base's and the overlay's
	plan      *int      // the plan stored on base
	// folded is the overlay folded at the last check; was is what its
	// reference was then.
	folded *risk.Model
	was    *refModel
	stats  *modelStats
}

// runModel drives one case from c: steps each drawn uniformly from ops,
// from a drawn footprint's model, or d's controller model (sw 0) or switch
// sw's, counting into stats what it exercised.
func runModel(t *testing.T, c *oracle.Choices, d *compile.Deployment, sw object.ID, steps int, ops []op, stats *modelStats) {
	t.Helper()
	h := &harness{t: t, c: c, d: d, stats: stats, prov: map[rule.Key][]object.Ref{}}
	switch {
	case d == nil:
		fp := h.footprint()
		h.base, h.twin = risk.NewModel("drawn", fp), newRef("drawn", fp.Pairs)
		for el, refs := range fp.Risks {
			for _, ref := range refs {
				h.twin.add(edge{risk.ElementID(el), ref}, false)
			}
		}
		for _, x := range h.rules(18) {
			if !c.Chance(4) {
				h.prov[x.Key()] = h.provenance()
			}
		}
	case sw == 0:
		h.base, h.twin = risk.BuildControllerModel(d), refBuild(d, 0)
	default:
		h.base, h.twin = switchModel(d, sw), refBuild(d, sw)
	}
	if d != nil {
		h.prov = d.Provenance
	}
	h.fresh()
	h.check("the build")
	for i := 0; i < steps; i++ {
		h.step(i, ops[c.Intn(len(ops))])
	}
}

// footprint draws one to six triplets on switches 1-2 between EPGs 1-3,
// which NewModel must refuse unless they strictly ascend, and returns them
// sorted without repeats, each depending on up to three pool refs.
func (h *harness) footprint() compile.Footprint {
	c := h.c
	drawn := make([]compile.SwitchPair, 1+c.Intn(6))
	for i := range drawn {
		drawn[i] = compile.SwitchPair{Switch: object.ID(1 + c.Intn(2)), Pair: policy.MakeEPGPair(object.ID(1+c.Intn(3)), object.ID(1+c.Intn(3)))}
	}
	fp := compile.Footprint{Pairs: slices.Clone(drawn)}
	slices.SortFunc(fp.Pairs, compile.SwitchPair.Compare)
	fp.Pairs = slices.Compact(fp.Pairs)
	if !slices.Equal(fp.Pairs, drawn) {
		h.stats.unsorted++
		func() {
			defer func() {
				same(h.t, "footprint", "NewModel over triplets that do not ascend panics", recover() != nil, true)
			}()
			risk.NewModel("unsorted", compile.Footprint{Pairs: drawn, Risks: make([][]object.Ref, len(drawn))})
		}()
	}
	fp.Risks = make([][]object.Ref, len(fp.Pairs))
	for i := range fp.Risks {
		for k := c.Intn(4); k > 0; k-- {
			if ref := refPool[c.Intn(len(refPool))]; !slices.Contains(fp.Risks[i], ref) {
				fp.Risks[i] = append(fp.Risks[i], ref)
			}
		}
	}
	return fp
}

// sw draws a switch of the three-tier deployment.
func (h *harness) sw() object.ID { return object.ID(1 + h.c.Intn(3)) }

// refFrom draws one of r's risks, or one time in four a pool ref.
func (h *harness) refFrom(r *refModel) object.Ref {
	if risks := r.risks(); len(risks) > 0 && !h.c.Chance(4) {
		return risks[h.c.Intn(len(risks))]
	}
	return refPool[h.c.Intn(len(refPool))]
}

func (h *harness) provenance() []object.Ref {
	refs := make([]object.Ref, 1+h.c.Intn(3))
	for i := range refs {
		refs[i] = refPool[h.c.Intn(len(refPool))]
	}
	return refs
}

// rules draws up to n missing rules: a deployed switch's own, or rules
// between EPGs 1-3 on port 80 or 81; one time in two without provenance.
func (h *harness) rules(n int) []rule.Rule {
	c := h.c
	var pool []rule.Rule
	if h.d != nil {
		pool = h.d.RulesFor(object.ID(1 + c.Intn(3)))
	}
	out := make([]rule.Rule, c.Intn(n+1))
	for i := range out {
		if len(pool) > 0 {
			out[i] = pool[c.Intn(len(pool))]
		} else {
			port := uint16(80 + c.Intn(2))
			out[i] = rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: object.ID(1 + c.Intn(3)), DstEPG: object.ID(1 + c.Intn(3)),
				Proto: rule.ProtoTCP, PortLo: port, PortHi: port}, Action: rule.Allow, Provenance: h.provenance()}
		}
		if c.Chance(2) {
			out[i].Provenance = nil
		}
	}
	return out
}

// augmentMarks returns the marks augmentation of switch sw's missing
// rules makes as read in r: the edges of the triplet each rule serves on
// sw to the rule's provenance — its own list first, then the map's — and,
// for a patch, to the switch when r has that risk.
func (h *harness) augmentMarks(r *refModel, sw object.ID, missing []rule.Rule, patch bool) []edge {
	var out []edge
	switchRisk := patch && slices.Contains(r.risks(), object.Switch(sw))
	for _, x := range missing {
		sp := compile.SwitchPair{Switch: sw, Pair: policy.MakeEPGPair(x.Match.SrcEPG, x.Match.DstEPG)}
		el := risk.ElementID(slices.Index(r.pairs, sp))
		mapped, ok := h.prov[x.Key()]
		switch refs := x.Provenance; {
		case el < 0:
			h.stats.skipped++
			continue
		case len(refs) == 0:
			h.stats.resolved += len(mapped)
			x.Provenance = mapped
		case ok && !slices.Equal(refs, mapped):
			h.stats.own++
		}
		for _, ref := range x.Provenance {
			out = append(out, edge{el, ref})
		}
		if switchRisk {
			out = append(out, edge{el, object.Switch(sw)})
		}
	}
	return out
}

// apply marks es in r and counts what the marks exercised.
func (h *harness) apply(r *refModel, es []edge) {
	for _, e := range es {
		if failed, ok := r.edges[e]; failed {
			h.stats.remarked++
		} else if r == h.ovr && !ok {
			h.stats.created++
		}
		r.add(e, true)
	}
}

// fresh puts a fresh overlay over the new base, and stores a plan on the
// base; a second store must not replace it.
func (h *harness) fresh() {
	h.ov, h.ovr, h.plan = risk.NewOverlay(h.base), h.twin.pristine(), new(int)
	h.base.StorePlan(h.plan)
	h.base.StorePlan(new(int))
}

func (h *harness) step(i int, kind op) {
	t, c := h.t, h.c
	t.Helper()
	label := fmt.Sprintf("step %d (%s)", i, opNames[kind])
	el := risk.ElementID(c.Intn(len(h.twin.pairs)))
	switch kind {
	case opMark:
		ref := h.refFrom(h.ovr)
		h.ov.MarkFailed(el, ref)
		h.apply(h.ovr, []edge{{el, ref}})
	case opAugment:
		sw, missing := h.sw(), h.rules(4)
		risk.AugmentSwitchModel(h.ov, sw, missing, h.prov)
		h.apply(h.ovr, h.augmentMarks(h.ovr, sw, missing, false))
	case opPatch:
		// Computed as the analyzer computes it, against the pristine base,
		// or against the overlay itself.
		sw, missing := h.sw(), h.rules(4)
		at, atRef := risk.View(h.base), h.twin
		if c.Chance(2) {
			at, atRef = h.ov, h.ovr
		}
		marks := h.augmentMarks(atRef, sw, missing, true)
		risk.AugmentControllerModelPatch(at, sw, missing, h.prov).Apply(h.ov)
		h.apply(h.ovr, marks)
	case opBoth:
		// One switch's rules augmented each way on a fresh overlay over the
		// base: one lookup, so the patch's marks are AugmentSwitchModel's
		// and the implicated triplets' switch risk, and nothing else.
		sw, missing := h.sw(), h.rules(4)
		aug, patched := risk.NewOverlay(h.base), risk.NewOverlay(h.base)
		risk.AugmentSwitchModel(aug, sw, missing, h.prov)
		risk.AugmentControllerModelPatch(h.base, sw, missing, h.prov).Apply(patched)
		augMarks, patchMarks := sortEdges(marksOf(aug)), sortEdges(marksOf(patched))
		same(t, label, "AugmentSwitchModel's marks", augMarks, sortEdges(h.augmentMarks(h.twin, sw, missing, false)))
		same(t, label, "the patch's marks", patchMarks, sortEdges(h.augmentMarks(h.twin, sw, missing, true)))
		h.stats.switched += len(patchMarks) - len(augMarks)
	case opOverlay:
		// A new model of the overlay's edges, element-major as NewModel
		// numbers them.
		h.twin = h.ovr.pristine()
		h.base = h.twin.replay()
		h.fresh()
	}
	h.check(label)
}

// check holds the model, the overlay and the overlay folded into a model
// to their references after a step.
func (h *harness) check(label string) {
	t := h.t
	t.Helper()
	if h.base.CachedPlan() != any(h.plan) || h.ov.Base() != h.base {
		t.Fatalf("%s: the overlay's base changed, or its plan did", label)
	}
	checkView(t, label+", model", h.base, h.twin)
	checkView(t, label+", overlay", h.ov, h.ovr)
	if h.folded != nil {
		checkView(t, label+", the last check's fold", h.folded, h.was)
	}
	h.folded, h.was = risk.Fold(h.ov), h.ovr.clone()
	checkView(t, label+", folded overlay", h.folded, h.ovr)
	if e, ok := h.rival(); ok {
		other := risk.NewOverlay(h.base)
		other.MarkFailed(e.el, e.ref)
		risk.Fold(other)
		checkView(t, label+", folded overlay after another fold", h.folded, h.ovr)
	}
	if len(h.ovr.failed()) > 0 {
		h.stats.refused++
		func() {
			defer func() { same(t, label, "NewOverlay over a marked model panics", recover() != nil, true) }()
			risk.NewOverlay(h.folded)
		}()
	}
	var created []edge
	h.ov.ForEachOverlayEdge(func(el risk.ElementID, ref object.Ref) { created = append(created, edge{el, ref}) })
	wantCreated := slices.Clone(h.ovr.order[len(h.twin.order):])
	slices.SortStableFunc(wantCreated, func(a, b edge) int { return int(a.el - b.el) })
	_, suspects := h.ovr.signature()
	same(t, label, "the overlay's edges", created, wantCreated)
	same(t, label, "the overlay's risks", h.ov.ExtraRiskRefs(), h.ovr.risks()[len(h.twin.risks()):])
	same(t, label, "the suspects", h.ov.SuspectSet(), suspects)
}

// rival returns an edge the base lacks to the risk of the overlay's first
// created edge to a base risk, from another element: a second fold of the
// base appends it where the overlay's fold appended that edge.
func (h *harness) rival() (edge, bool) {
	risks := h.twin.risks()
	for _, c := range h.ovr.order[len(h.twin.order):] {
		if !slices.Contains(risks, c.ref) {
			continue
		}
		for el := range h.twin.pairs {
			if e := (edge{risk.ElementID(el), c.ref}); e.el != c.el && !slices.Contains(h.twin.order, e) {
				return e, true
			}
		}
		return edge{}, false
	}
	return edge{}, false
}

// marksOf returns v's failure marks in the order ForEachMark yields them.
func marksOf(v risk.View) []edge {
	var out []edge
	v.ForEachMark(func(el risk.ElementID, ref object.Ref) { out = append(out, edge{el, ref}) })
	return out
}

// sortEdges sorts es by element, then ref, and drops repeats.
func sortEdges(es []edge) []edge {
	slices.SortFunc(es, func(a, b edge) int { return cmp.Or(cmp.Compare(a.el, b.el), a.ref.Compare(b.ref)) })
	return slices.Compact(es)
}

// checkView holds every read of v to r: the summary, each triplet's
// element, each ref's risk, the failed edges ForEachMark yields, by
// element and then RiskID, on an overlay the failure signature, and on a
// model each risk's dependents and the sorted risk list.
func checkView(t *testing.T, label string, v risk.View, r *refModel) {
	t.Helper()
	same(t, label, "the summary", v, r)
	for i, sp := range append(slices.Clone(r.pairs), compile.SwitchPair{Switch: 2}, compile.SwitchPair{Switch: 999}) {
		id, ok := v.ElementOf(sp)
		same(t, label, "ElementOf("+sp.String()+") is the reference's", ok && int(id) == i, i < len(r.pairs))
	}
	risks := r.risks()
	for i, ref := range append(slices.Clone(risks), object.Filter(999)) {
		id, ok := v.RiskByRef(ref)
		same(t, label, "RiskByRef("+ref.String()+") is the reference's", ok && int(id) == i, i < len(risks))
	}
	marks := r.failed()
	slices.SortFunc(marks, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.el, b.el), cmp.Compare(slices.Index(risks, a.ref), slices.Index(risks, b.ref)))
	})
	same(t, label, "the marks", marksOf(v), marks)
	m, ok := v.(*risk.Model)
	if !ok {
		sig, _ := r.signature()
		same(t, label, "the failure signature", v.(*risk.Overlay).FailureSignature(), sig)
		return
	}
	for _, ref := range append(risks, object.Filter(999)) {
		if deps := m.ElementsOf(ref); len(deps) > 0 {
			deps[0] = -1 // the caller's copy
		}
		same(t, label, "ElementsOf("+ref.String()+")", m.ElementsOf(ref), r.elementsOf(ref))
	}
	slices.SortFunc(risks, object.Ref.Compare)
	same(t, label, "Risks()", m.Risks(), risks)
}

// same fails the test unless got and want print alike.
func same(t *testing.T, label, what string, got, want any) {
	t.Helper()
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		t.Fatalf("%s: %s %s, want %s", label, what, g, w)
	}
}

// FuzzModel runs the fuzzer's bytes as a case over every step, from a
// drawn footprint's model or, one time in two, the three-tier controller
// model.
func FuzzModel(f *testing.F) {
	f.Add([]byte{})
	d := threeTier(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		start := map[bool]*compile.Deployment{true: d}[c.Chance(2)]
		runModel(t, c, start, 0, min(len(data), 200), allOps, &modelStats{})
	})
}
