// The package's case runner. A case starts from a drawn footprint, which
// NewModel must refuse unless its triplets strictly ascend, or from a
// deployment's model. One stream of steps, read from an oracle.Choices,
// marks switches' missing rules against that model with MarkSwitch and
// joins the runs into an overlay with NewOverlay: one edge's rule, a
// switch's rules whose own view is checked too, the deprecated
// AugmentControllerModelPatch with Apply onto the overlay, the runs of a
// few switches joined afresh beside each switch's view, and NewOverlay
// alone over a new model, NewModel's build of the overlay's edges. The
// reference is a plain edge map in insertion order, whose refs a model
// numbers in ref order and an overlay numbers after its model's as first
// named. After every step the model, the overlay and the overlay folded
// into a model must read as their references do, the models' adjacency
// rows must ascend and transpose each other, the model must be untouched,
// and an overlay over the folded model must be refused once it carries a
// mark.

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

var opNames = [...]string{"one edge's run", "a switch's run", "Patch.Apply", "runs joined", "NewOverlay"}

var allOps = []op{opMark, opAugment, opPatch, opBoth, opOverlay}

type edge struct {
	el  risk.ElementID
	ref object.Ref
}

// refModel is the reference: element triplets in ID order, and a plain
// map of the edges to whether each failed, with their insertion order.
// The first nBase edges are what a model was built with.
type refModel struct {
	name  string
	pairs []compile.SwitchPair
	order []edge
	edges map[edge]bool
	nBase int
	// all, when set, are the risks: a range's are its model's.
	all []object.Ref
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

// risks returns the refs in RiskID order: the model's in ref order, then
// those of later edges in the order an edge first named them.
func (r *refModel) risks() []object.Ref {
	if r.all != nil {
		return r.all
	}
	var out []object.Ref
	add := func(es []edge) {
		for _, e := range es {
			if !slices.Contains(out, e.ref) {
				out = append(out, e.ref)
			}
		}
	}
	add(r.order[:r.nBase])
	slices.SortFunc(out, object.Ref.Compare)
	add(r.order[r.nBase:])
	return out
}

// elementsOf returns ref's dependents, ascending.
func (r *refModel) elementsOf(ref object.Ref) []risk.ElementID {
	var out []risk.ElementID
	for _, e := range r.order {
		if e.ref == ref {
			out = append(out, e.el)
		}
	}
	slices.Sort(out)
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

// built returns a copy of r as a model built from all its edges reads:
// every ref numbered in ref order, as a fold's are.
func (r *refModel) built() *refModel {
	return &refModel{name: r.name, pairs: r.pairs, order: slices.Clone(r.order), edges: maps.Clone(r.edges), nBase: len(r.order)}
}

// pristine returns r's elements and edges, none failed, the edges
// element-major, as a model built from them.
func (r *refModel) pristine() *refModel {
	p := newRef(r.name, r.pairs)
	order := slices.Clone(r.order)
	slices.SortStableFunc(order, func(a, b edge) int { return cmp.Compare(a.el, b.el) })
	for _, e := range order {
		p.add(e, false)
	}
	return p.built()
}

// rangeOf returns r's view of its elements [lo, hi), numbered from lo:
// their edges in r's order, and every risk of r's.
func (r *refModel) rangeOf(lo, hi int) *refModel {
	out := &refModel{name: r.name, pairs: r.pairs[lo:hi], edges: map[edge]bool{}, all: r.risks()}
	for i, e := range r.order {
		if int(e.el) < lo || int(e.el) >= hi {
			continue
		}
		if i < r.nBase {
			out.nBase++
		}
		f := edge{e.el - risk.ElementID(lo), e.ref}
		out.order = append(out.order, f)
		out.edges[f] = r.edges[e]
	}
	return out
}

// switchRange returns the elements [lo, hi) of r on switch sw.
func (r *refModel) switchRange(sw object.ID) (lo, hi int) {
	lo = slices.IndexFunc(r.pairs, func(sp compile.SwitchPair) bool { return sp.Switch >= sw })
	if lo < 0 {
		return len(r.pairs), len(r.pairs)
	}
	hi = lo + slices.IndexFunc(r.pairs[lo:], func(sp compile.SwitchPair) bool { return sp.Switch > sw })
	if hi < lo {
		hi = len(r.pairs)
	}
	return lo, hi
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
	listOnly int // edges such a rule's own provenance names that the base lacks
	skipped  int // augmented rules for a triplet the model lacks
	refused  int // overlays refused over a folded, marked overlay
	unsorted int // drawn footprints NewModel refused
	switched int // switch-risk marks a controller view had beside its switches' views
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
	runs      []*risk.SwitchMarks // the overlay's, in the order it joined them
	twin, ovr *refModel           // the base's and the overlay's
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
		h.start("drawn", h.footprint())
		for _, x := range h.rules(18) {
			if !c.Chance(4) {
				h.prov[x.Key()] = h.provenance()
			}
		}
	case sw == 0:
		h.base, h.twin = controllerModel(h.t, d), refBuild(d, 0)
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

// start sets the base to the model of fp, with its reference.
func (h *harness) start(name string, fp compile.Footprint) {
	h.base, h.twin = risk.NewModel(name, fp), newRef(name, fp.Pairs)
	for el, refs := range fp.Risks {
		for _, ref := range refs {
			h.twin.add(edge{risk.ElementID(el), ref}, false)
		}
	}
	h.twin = h.twin.built()
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

// augmentMarks returns the marks switch sw's missing rules make as read
// in r: the edges of the triplet each rule serves on sw to the rule's
// provenance — its own list first, then the map's — and, in the
// controller's view (ctrl), to the switch when the base has that risk.
func (h *harness) augmentMarks(r *refModel, sw object.ID, missing []rule.Rule, ctrl bool) []edge {
	var out []edge
	switchRisk := ctrl && slices.Contains(h.twin.risks(), object.Switch(sw))
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
			for _, ref := range refs {
				if _, onBase := h.twin.edges[edge{el, ref}]; !onBase {
					h.stats.listOnly++
				}
			}
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

// fresh puts a fresh overlay over the new base.
func (h *harness) fresh() {
	h.ov, h.ovr, h.runs = risk.NewOverlay(h.base), h.twin.pristine(), nil
}

// edgeRule returns the missing rule that marks edge e alone, and its
// switch.
func (h *harness) edgeRule(e edge) (object.ID, []rule.Rule) {
	sp := h.twin.pairs[e.el]
	return sp.Switch, []rule.Rule{{Match: rule.Match{SrcEPG: sp.Pair.A, DstEPG: sp.Pair.B}, Provenance: []object.Ref{e.ref}}}
}

// switchRules is one switch's missing rules.
type switchRules struct {
	sw    object.ID
	rules []rule.Rule
}

// mark marks one switch's missing rules against the base: the run joins
// the overlay, rebuilt over every run so far, and its own view is checked.
func (h *harness) mark(label string, sr switchRules) {
	s := risk.MarkSwitch(h.base, sr.sw, sr.rules, h.prov)
	h.switchView(label, s, sr)
	h.runs = append(h.runs, s)
	h.ov = risk.NewOverlay(h.base, h.runs...)
	h.apply(h.ovr, h.augmentMarks(h.ovr, sr.sw, sr.rules, true))
}

// switchView holds switch s's view of its marks to the pristine base's
// reference marked with the switch's rules as its own view reads them, on
// the switch's range.
func (h *harness) switchView(label string, s *risk.SwitchMarks, sr switchRules) *risk.Overlay {
	r := h.twin.pristine()
	h.apply(r, h.augmentMarks(r, sr.sw, sr.rules, false))
	lo, hi := r.switchRange(sr.sw)
	v := s.View()
	vlo, vhi := v.Range()
	same(h.t, label, fmt.Sprintf("switch %d's range", sr.sw), []risk.ElementID{vlo, vhi}, []int{lo, hi})
	checkOverlay(h.t, fmt.Sprintf("%s, switch %d's view", label, sr.sw), v, r.rangeOf(lo, hi), len(h.twin.risks()))
	return v
}

// join joins runs of the switches' rules, in their order, into a fresh
// overlay over the base, and holds it and each switch's view to the
// reference: the controller view marked switch by switch, and each
// switch's own. It returns the overlay and the switches' views.
func (h *harness) join(label string, srs []switchRules) (*risk.Overlay, []*risk.Overlay) {
	r := h.twin.pristine()
	runs, views := make([]*risk.SwitchMarks, len(srs)), make([]*risk.Overlay, len(srs))
	for i, sr := range srs {
		runs[i] = risk.MarkSwitch(h.base, sr.sw, sr.rules, h.prov)
		views[i] = h.switchView(label, runs[i], sr)
		ctrl := h.augmentMarks(r, sr.sw, sr.rules, true)
		h.stats.switched += len(sortEdges(slices.Clone(ctrl))) - len(sortEdges(h.augmentMarks(r, sr.sw, sr.rules, false)))
		h.apply(r, ctrl)
	}
	o := risk.NewOverlay(h.base, runs...)
	checkView(h.t, label+", the joined runs", o, r)
	checkOverlay(h.t, label+", the joined runs", o, r, len(h.twin.risks()))
	return o, views
}

func (h *harness) step(i int, kind op) {
	t, c := h.t, h.c
	t.Helper()
	label := fmt.Sprintf("step %d (%s)", i, opNames[kind])
	el := risk.ElementID(c.Intn(len(h.twin.pairs)))
	switch kind {
	case opMark:
		sw, rules := h.edgeRule(edge{el, h.refFrom(h.ovr)})
		h.mark(label, switchRules{sw, rules})
	case opAugment:
		h.mark(label, switchRules{h.sw(), h.rules(4)})
	case opPatch:
		sw, missing := h.sw(), h.rules(4)
		risk.AugmentControllerModelPatch(h.ov, sw, missing, h.prov).Apply(h.ov)
		h.runs = append(h.runs, risk.MarkSwitch(h.base, sw, missing, h.prov))
		h.apply(h.ovr, h.augmentMarks(h.ovr, sw, missing, true))
	case opBoth:
		// A few switches' rules, in any order and a switch maybe twice,
		// joined afresh: their own views are the controller view's range
		// without its marks to their switch.
		srs := make([]switchRules, 1+c.Intn(3))
		for k := range srs {
			srs[k] = switchRules{h.sw(), h.rules(4)}
		}
		h.join(label, srs)
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
	if h.ov.Base() != h.base {
		t.Fatalf("%s: the overlay's base changed", label)
	}
	checkView(t, label+", model", h.base, h.twin)
	checkView(t, label+", overlay", h.ov, h.ovr)
	checkOverlay(t, label+", overlay", h.ov, h.ovr, len(h.twin.risks()))
	if h.folded != nil {
		checkView(t, label+", the last check's fold", h.folded, h.was)
	}
	h.folded, h.was = risk.Fold(h.ov), h.ovr.built()
	checkView(t, label+", folded overlay", h.folded, h.was)
	if e, ok := h.rival(); ok {
		sw, rules := h.edgeRule(e)
		risk.Fold(risk.NewOverlay(h.base, risk.MarkSwitch(h.base, sw, rules, nil)))
		checkView(t, label+", folded overlay after another fold", h.folded, h.was)
	}
	if len(h.ovr.failed()) > 0 {
		h.stats.refused++
		func() {
			defer func() { same(t, label, "NewOverlay over a marked model panics", recover() != nil, true) }()
			risk.NewOverlay(h.folded)
		}()
	}
}

// checkOverlay holds what an overlay adds to its base to r, whose first
// nRisks risks are the base's: the created edges, by element and then
// RiskID, the created risks, and the suspects.
func checkOverlay(t *testing.T, label string, o *risk.Overlay, r *refModel, nRisks int) {
	t.Helper()
	lo, _ := o.Range()
	refs := append(o.Base().Risks(), o.ExtraRiskRefs()...)
	var created []edge
	for _, e := range o.CreatedEdges() {
		created = append(created, edge{e.El - lo, refs[e.Risk]})
	}
	risks := r.risks()
	want := slices.Clone(r.order[r.nBase:])
	slices.SortFunc(want, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.el, b.el), cmp.Compare(slices.Index(risks, a.ref), slices.Index(risks, b.ref)))
	})
	_, suspects := r.signature()
	same(t, label, "the overlay's edges", created, want)
	same(t, label, "the overlay's risks", o.ExtraRiskRefs(), risks[nRisks:])
	same(t, label, "the suspects", o.SuspectSet(), suspects)
}

// rival returns an edge the base lacks to the risk of the overlay's first
// created edge to a base risk, from another element: a second fold of the
// base adds it to the row the overlay's fold added that edge to, and must
// leave the first fold's arrays alone.
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

// marksOf returns v's failed edges in the order its Marks are, in v's
// element numbering.
func marksOf(v risk.View) []edge {
	var out []edge
	switch v := v.(type) {
	case *risk.Model:
		for _, mk := range v.Marks() {
			out = append(out, edge{mk.El, v.Risks()[mk.Risk]})
		}
	case *risk.Overlay:
		lo, _ := v.Range()
		refs := append(v.Base().Risks(), v.ExtraRiskRefs()...)
		for _, mk := range v.Marks() {
			out = append(out, edge{mk.El - lo, refs[mk.Risk]})
		}
	}
	return out
}

// sortEdges sorts es by element, then ref, and drops repeats.
func sortEdges(es []edge) []edge {
	slices.SortFunc(es, func(a, b edge) int { return cmp.Or(cmp.Compare(a.el, b.el), a.ref.Compare(b.ref)) })
	return slices.Compact(es)
}

// checkView holds every read of v to r: the summary, each ref's risk,
// the failed edges Marks lists, by element and then RiskID, on an overlay
// the failure signature, and on a model each triplet's element, the risk
// list, each risk's dependents, and its adjacency: every row ascends, and
// the element and risk rows are transposes.
func checkView(t *testing.T, label string, v risk.View, r *refModel) {
	t.Helper()
	same(t, label, "the summary", v, r)
	risks := r.risks()
	marks := r.failed()
	slices.SortFunc(marks, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.el, b.el), cmp.Compare(slices.Index(risks, a.ref), slices.Index(risks, b.ref)))
	})
	same(t, label, "the marks", marksOf(v), marks)
	m, ok := v.(*risk.Model)
	if !ok {
		sig, _ := r.signature()
		same(t, label, "the failure signature", risk.FailureSignature(v.(*risk.Overlay)), sig)
		return
	}
	for i, sp := range append(slices.Clone(r.pairs), compile.SwitchPair{Switch: 2}, compile.SwitchPair{Switch: 999}) {
		id, ok := m.ElementOf(sp)
		same(t, label, "ElementOf("+sp.String()+") is the reference's", ok && int(id) == i, i < len(r.pairs))
	}
	for i, ref := range append(slices.Clone(risks), object.Filter(999)) {
		id, ok := m.RiskByRef(ref)
		same(t, label, "RiskByRef("+ref.String()+") is the reference's", ok && int(id) == i, i < len(risks))
	}
	// Every row is the model's own, clipped: a caller's append copies.
	same(t, label, "Risks()", m.Risks(), risks)
	same(t, label, "Risks()' spare capacity", cap(m.Risks())-len(risks), 0)
	edges := 0
	for i, ref := range risks {
		deps := m.Dependents(risk.RiskID(i))
		same(t, label, "Dependents("+ref.String()+")", deps, r.elementsOf(ref))
		same(t, label, "Dependents("+ref.String()+")' spare capacity", cap(deps)-len(deps), 0)
		edges += len(deps)
	}
	for el := range r.pairs {
		row := m.RisksOf(risk.ElementID(el))
		same(t, label, "RisksOf's spare capacity", cap(row)-len(row), 0)
		for k, id := range row {
			if k > 0 && row[k-1] >= id || !slices.Contains(m.Dependents(id), risk.ElementID(el)) {
				t.Fatalf("%s: element %d's risks %v do not ascend, or risk %d's dependents %v lack it", label, el, row, id, m.Dependents(id))
			}
		}
		edges -= len(row)
	}
	same(t, label, "risk rows' edges less element rows'", edges, 0)
}

// same fails the test unless got and want print alike.
func same(t *testing.T, label, what string, got, want any) {
	t.Helper()
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		t.Fatalf("%s: %s %s, want %s", label, what, g, w)
	}
}

// controllerModel builds d's controller model, failing t on its error.
func controllerModel(t testing.TB, d *compile.Deployment) *risk.Model {
	t.Helper()
	m, err := risk.BuildControllerModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
