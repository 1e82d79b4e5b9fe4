// Copy-on-write failure overlays over an immutable pristine risk model.
//
// Building the controller risk model is O(deployment); annotating it with
// one round's failures is O(failures). Annotation mutates a Model, so a
// continuous-verification loop marking a cached model in place would pay
// a build or a deep copy every warm run anyway. An Overlay removes that:
// the pristine Model becomes a shared read-only core, and each run puts
// a small overlay over it that records only its own failed-edge marks
// (plus the rare edges/risks a mark creates). Creating an overlay is
// O(1); reads merge base and overlay state so the overlay is
// indistinguishable from a second build of the model annotated in place
// with the same MarkFailed sequence — the property the risk and
// localization runners pin.

package risk

import (
	"fmt"
	"sort"

	"scout/internal/compile"
	"scout/internal/object"
)

// Overlay is a copy-on-write failure view over a base Model. The base is
// treated as immutable for the overlay's lifetime: concurrent readers
// (including other overlays over the same base) are safe as long as
// nothing mutates the base itself. Element and risk IDs match what
// MarkFailed on the model itself would produce, so results read through
// either are identical.
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
	// the base's dense numbering in creation order, mirroring EnsureRisk
	// on the model itself.
	extraRisks []object.Ref
	extraByRef map[object.Ref]RiskID

	// extraDeps appends overlay-created edges to an element's adjacency.
	extraDeps map[ElementID][]RiskID

	// failed records the overlay's failure marks per element.
	failed map[ElementID]map[RiskID]struct{}

	edges     int // overlay-created edges
	numFailed int // overlay-added failure marks
}

// NewOverlay creates an empty failure overlay over base, which must carry
// no failed edge; it panics on one that does. The caller must not mutate
// base while the overlay is alive.
func NewOverlay(base *Model) *Overlay {
	if base.failed > 0 {
		panic(fmt.Sprintf("risk: overlay over %s, which is not pristine", base))
	}
	return &Overlay{
		base:       base,
		hi:         ElementID(len(base.elements)),
		extraByRef: make(map[object.Ref]RiskID),
		extraDeps:  make(map[ElementID][]RiskID),
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
	n := o.edges
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

// hasEdge reports whether the edge el↔r exists in base or overlay.
func (o *Overlay) hasEdge(el ElementID, r RiskID) bool {
	for _, existing := range o.base.elements[o.lo+el].risks {
		if existing == r {
			return true
		}
	}
	for _, existing := range o.extraDeps[el] {
		if existing == r {
			return true
		}
	}
	return false
}

// MarkFailed flags the edge between el and ref as fail, creating the edge
// (and risk) in the overlay if the base lacks it — the same contract as
// Model.MarkFailed. el must be in the overlay's range.
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
	if !o.hasEdge(el, r) {
		o.extraDeps[el] = append(o.extraDeps[el], r)
		o.edges++
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
