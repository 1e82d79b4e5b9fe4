// Copy-on-write failure overlays over an immutable pristine risk model.
//
// Building the controller risk model is O(deployment); annotating it with
// one round's failures is O(failures). The pristine Model is a shared
// read-only core that nothing marks, and each run puts a small overlay
// over it that records only its own failed-edge marks (plus the rare
// edges/risks a mark creates). Creating an overlay is O(1); reads merge
// base and overlay state, numbering the risks and edges a mark creates
// after the base's. A localization run reads the base's arrays as they
// are and the overlay's marks, created edges and created risks, which the
// exports below enumerate, as its delta. fold turns an overlay into a
// Model of its own, for the one caller that wants a marked model.

package risk

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"scout/internal/compile"
	"scout/internal/object"
)

// Overlay is a copy-on-write failure view over a base Model. The base
// never changes, so concurrent readers (including other overlays over the
// same base) are safe. Risks a mark creates are numbered after the base's
// in creation order.
//
// An Overlay supports marking failures but not adding elements; risks and
// edges are created implicitly when a mark names an edge the base lacks
// (the §III-C rule that an observed violation always implicates the
// object). The base is pristine: every failure an overlay reports is one
// of its own marks.
//
// An overlay views a range of its base's elements: all of them, or one
// switch's run (NewSwitchOverlay). Its element i is base element lo+i.
type Overlay struct {
	base   *Model
	lo, hi ElementID

	// extraRisks holds risks created by overlay marks; their IDs continue
	// the base's dense numbering in creation order.
	extraRisks []object.Ref
	extraByRef map[object.Ref]RiskID

	// created lists the edges overlay marks created, in mark order.
	created []edge

	// failed records the overlay's failure marks per element.
	failed map[ElementID]map[RiskID]struct{}

	numFailed int // overlay-added failure marks
}

// NewOverlay creates an empty failure overlay over base, which must carry
// no failed edge; it panics on a folded overlay that does.
func NewOverlay(base *Model) *Overlay {
	if len(base.marks) > 0 {
		panic(fmt.Sprintf("risk: overlay over %s, which is not pristine", base))
	}
	return &Overlay{
		base:       base,
		hi:         ElementID(len(base.pairs)),
		extraByRef: make(map[object.Ref]RiskID),
		failed:     make(map[ElementID]map[RiskID]struct{}),
	}
}

// NewSwitchOverlay creates an empty failure overlay over the run of base's
// elements on switch sw. Over the controller model, whose triplets ascend
// by switch, that run is sw's switch risk model (paper Figure 4(a)): the
// same elements in the same order, numbered from 0, with the same edges
// and one more, to sw's switch risk. No switch mark names that risk
// (AugmentSwitchModel makes none), so localization on the overlay never
// picks it. The overlay shares its base's risk numbering.
func NewSwitchOverlay(base *Model, sw object.ID) *Overlay {
	o := NewOverlay(base)
	o.lo = ElementID(sort.Search(len(base.pairs), func(i int) bool { return base.pairs[i].Switch >= sw }))
	o.hi = ElementID(sort.Search(len(base.pairs), func(i int) bool { return base.pairs[i].Switch > sw }))
	return o
}

// Base returns the pristine model the overlay stacks on.
func (o *Overlay) Base() *Model { return o.base }

// Range returns the base elements [lo, hi) the overlay views.
func (o *Overlay) Range() (lo, hi ElementID) { return o.lo, o.hi }

// Name returns the base model's diagnostic name.
func (o *Overlay) Name() string { return o.base.name }

// NumElements returns the number of affected elements in the overlay's
// range (overlays never add elements).
func (o *Overlay) NumElements() int { return int(o.hi - o.lo) }

// NumRisks returns the combined number of shared risks, every base risk
// included.
func (o *Overlay) NumRisks() int { return len(o.base.refs) + len(o.extraRisks) }

// NumEdges returns the combined number of element↔risk edges in the
// overlay's range.
func (o *Overlay) NumEdges() int {
	return o.base.adjOff[o.hi] - o.base.adjOff[o.lo] + len(o.created)
}

// NumFailedEdges returns the number of edges the overlay marked fail.
func (o *Overlay) NumFailedEdges() int { return o.numFailed }

// ElementOf looks up the element of triplet sp in the overlay's range.
func (o *Overlay) ElementOf(sp compile.SwitchPair) (ElementID, bool) {
	el, ok := o.base.ElementOf(sp)
	return el - o.lo, ok && o.lo <= el && el < o.hi
}

// RiskByRef looks up a risk node by object reference, among base risks
// first, then overlay risks.
func (o *Overlay) RiskByRef(ref object.Ref) (RiskID, bool) {
	if r, ok := o.base.byRef[ref]; ok {
		return r, true
	}
	r, ok := o.extraByRef[ref]
	return r, ok
}

// refOf returns the object reference of a base or overlay risk.
func (o *Overlay) refOf(r RiskID) object.Ref {
	if int(r) < len(o.base.refs) {
		return o.base.refs[r]
	}
	return o.extraRisks[int(r)-len(o.base.refs)]
}

// MarkFailed flags the edge between el and ref as fail, creating the edge
// (and risk) in the overlay if the base lacks it: an observed violation
// always implicates the object (§III-C). Marking a failed edge again
// changes nothing. el must be in the overlay's range. It is the one way a
// failure is marked.
func (o *Overlay) MarkFailed(el ElementID, ref object.Ref) {
	if el < 0 || el >= o.hi-o.lo {
		panic(fmt.Sprintf("risk: overlay %q has no element %d", o.Name(), el))
	}
	r, ok := o.RiskByRef(ref)
	if !ok {
		r = RiskID(o.NumRisks())
		o.extraRisks = append(o.extraRisks, ref)
		o.extraByRef[ref] = r
	}
	_, onBase := slices.BinarySearch(o.base.RisksOf(o.lo+el), r)
	if e := (edge{el, r}); !onBase && !slices.Contains(o.created, e) {
		o.created = append(o.created, e)
	}
	set := o.failed[el]
	if set == nil {
		set = make(map[RiskID]struct{})
		o.failed[el] = set
	}
	if _, already := set[r]; !already {
		set[r] = struct{}{}
		o.numFailed++
	}
}

// FailureSignature returns the sorted IDs of all observations in
// O(overlay marks), the per-run cost the overlay exists to bound.
func (o *Overlay) FailureSignature() []ElementID { return sortedKeys(o.failed) }

// SuspectSet returns the union of risks with a failed edge to any
// observation: the objects an admin would have to examine without fault
// localization (the denominator of the paper's suspect-set-reduction
// metric γ).
func (o *Overlay) SuspectSet() []object.Ref {
	set := make(object.Set)
	for _, marks := range o.failed {
		for r := range marks {
			set.Add(o.refOf(r))
		}
	}
	return set.Sorted()
}

// String summarizes the view with the overlay's counts.
func (o *Overlay) String() string { return summarize(o) }

// ExtraRiskRefs returns the refs of risks created by overlay marks, in
// creation order (their RiskIDs continue the base's dense numbering).
func (o *Overlay) ExtraRiskRefs() []object.Ref {
	return append([]object.Ref(nil), o.extraRisks...)
}

// ForEachOverlayEdge invokes fn for every overlay-created edge (an edge a
// mark named that the base lacked), in ascending element order, then mark
// order. Every overlay-created edge also carries a failure mark, by
// construction of MarkFailed.
func (o *Overlay) ForEachOverlayEdge(fn func(el ElementID, ref object.Ref)) {
	created := slices.Clone(o.created)
	slices.SortStableFunc(created, func(a, b edge) int { return cmp.Compare(a.el, b.el) })
	for _, e := range created {
		fn(e.el, o.refOf(e.r))
	}
}

// ForEachMark invokes fn for every failure mark the overlay added (marks on
// base edges and on overlay-created edges alike), in ascending element
// order, then ascending risk ID. The base is pristine, so these are every
// failed edge the overlay has.
func (o *Overlay) ForEachMark(fn func(el ElementID, ref object.Ref)) {
	for _, el := range sortedKeys(o.failed) {
		for _, r := range sortedKeys(o.failed[el]) {
			fn(el, o.refOf(r))
		}
	}
}

// fold returns a fresh Model that reads as o does: NewModel's build of its
// base's triplets, each depending on its base refs and the refs of o's
// edges created on it, carrying o's marks. Its risks are numbered in ref
// order, o's created risks among the base's. o must view its base's whole
// range.
func (o *Overlay) fold() *Model {
	b := o.base
	risks := make([][]object.Ref, len(b.pairs))
	for el := range risks {
		for _, r := range b.RisksOf(ElementID(el)) {
			risks[el] = append(risks[el], b.refs[r])
		}
	}
	for _, e := range o.created {
		risks[e.el] = append(risks[e.el], o.refOf(e.r))
	}
	m := NewModel(b.name, compile.Footprint{Pairs: b.pairs, Risks: risks})
	o.ForEachMark(func(el ElementID, ref object.Ref) { m.marks = append(m.marks, edge{el, m.byRef[ref]}) })
	slices.SortFunc(m.marks, func(x, y edge) int { return cmp.Or(cmp.Compare(x.el, y.el), cmp.Compare(x.r, y.r)) })
	return m
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
