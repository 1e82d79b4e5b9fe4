// Copy-on-write failure overlays over an immutable pristine risk model.
//
// Building the controller risk model is O(deployment); annotating it with
// one round's failures is O(failures). The pristine Model is a shared
// read-only core that nothing marks, and each run puts a small overlay
// over it that records only its own failed-edge marks (plus the rare
// edges/risks a mark creates). Creating an overlay is O(1); reads merge
// base and overlay state, numbering the risks and edges a mark creates
// after the base's. fold turns an overlay into a Model of its own, for
// the one caller that wants a marked model.

package risk

import (
	"fmt"
	"maps"
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
	created []createdEdge

	// failed records the overlay's failure marks per element.
	failed map[ElementID]map[RiskID]struct{}

	numFailed int // overlay-added failure marks
}

type createdEdge struct {
	el ElementID
	r  RiskID
}

// NewOverlay creates an empty failure overlay over base, which must carry
// no failed edge; it panics on a folded overlay that does.
func NewOverlay(base *Model) *Overlay {
	if base.failed > 0 {
		panic(fmt.Sprintf("risk: overlay over %s, which is not pristine", base))
	}
	return &Overlay{
		base:       base,
		hi:         ElementID(len(base.elements)),
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
func (o *Overlay) NumRisks() int { return len(o.base.risks) + len(o.extraRisks) }

// NumEdges returns the combined number of element↔risk edges in the
// overlay's range.
func (o *Overlay) NumEdges() int {
	n := len(o.created)
	for _, e := range o.base.elements[o.lo:o.hi] {
		n += len(e.risks)
	}
	return n
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
	if int(r) < len(o.base.risks) {
		return o.base.risks[r].ref
	}
	return o.extraRisks[int(r)-len(o.base.risks)]
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
		r = RiskID(len(o.base.risks) + len(o.extraRisks))
		o.extraRisks = append(o.extraRisks, ref)
		o.extraByRef[ref] = r
	}
	if e := (createdEdge{el, r}); !slices.Contains(o.base.elements[o.lo+el].risks, r) && !slices.Contains(o.created, e) {
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

// fold returns a fresh Model that reads as o does: its base's elements,
// risks and edges, then the risks o's marks created in creation order and
// the edges in mark order, and o's marks — the IDs, edges and marks that
// marking a copy of the base in place would give. o must view its base's
// whole range.
func (o *Overlay) fold() *Model {
	b := o.base
	m := &Model{name: b.name, pairs: b.pairs, elements: slices.Clone(b.elements), risks: slices.Clone(b.risks),
		byRef: maps.Clone(b.byRef), edges: b.edges + len(o.created), failed: o.numFailed}
	for _, ref := range o.extraRisks {
		m.byRef[ref] = RiskID(len(m.risks))
		m.risks = append(m.risks, riskData{ref: ref})
	}
	// Clipped, an append never writes into the base's arrays.
	for _, e := range o.created {
		m.elements[e.el].risks = append(slices.Clip(m.elements[e.el].risks), e.r)
		m.risks[e.r].elements = append(slices.Clip(m.risks[e.r].elements), e.el)
	}
	for el, set := range o.failed {
		m.elements[el].failed = maps.Clone(set)
	}
	return m
}
