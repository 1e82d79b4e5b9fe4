// Copy-on-write failure overlays over an immutable pristine risk model.
//
// Building the controller risk model is O(deployment); annotating it with
// one round's failures is O(failures). Annotation mutates a Model, so a
// continuous-verification loop marking a cached model in place would pay
// a build or a deep copy every warm run anyway. An Overlay removes that:
// the pristine Model becomes a shared read-only core, and each run stacks
// a small overlay that records only its own failed-edge marks (plus the
// rare edges/risks a mark creates). Creating an overlay is O(1); reads
// merge base and overlay state so the overlay is indistinguishable from a
// second build of the model annotated in place with the same MarkFailed
// sequence — the property the localization identity tests pin.

package risk

import (
	"io"
	"sort"

	"scout/internal/object"
)

// Overlay is a copy-on-write failure view over a base Model. The base is
// treated as immutable for the overlay's lifetime: concurrent readers
// (including other overlays over the same base) are safe as long as
// nothing mutates the base itself. Element IDs, risk IDs, and adjacency
// orders match what MarkFailed on the model itself would produce, so
// results read through either are identical.
//
// An Overlay supports marking failures but not adding elements; risks and
// edges are created implicitly when a mark names an edge the base lacks
// (the §III-C rule that an observed violation always implicates the
// object). Overlays may stack: the base may itself carry failed edges,
// which the overlay's counts and failure sets include.
type Overlay struct {
	base *Model

	// extraRisks holds risks created by overlay marks; their IDs continue
	// the base's dense numbering in creation order, mirroring EnsureRisk
	// on the model itself.
	extraRisks []riskData
	extraByRef map[object.Ref]RiskID

	// extraDeps appends overlay-created edges to an element's adjacency;
	// extraElems appends overlay-gained dependents to a *base* risk
	// (overlay risks keep dependents in extraRisks[..].elements).
	extraDeps  map[ElementID][]RiskID
	extraElems map[RiskID][]ElementID

	// failed records the overlay's failure marks per element.
	failed map[ElementID]map[RiskID]struct{}

	edges     int // overlay-created edges
	numFailed int // overlay-added failure marks
}

// NewOverlay creates an empty failure overlay over base. The caller must
// not mutate base while the overlay is alive.
func NewOverlay(base *Model) *Overlay {
	return &Overlay{
		base:       base,
		extraByRef: make(map[object.Ref]RiskID),
		extraDeps:  make(map[ElementID][]RiskID),
		extraElems: make(map[RiskID][]ElementID),
		failed:     make(map[ElementID]map[RiskID]struct{}),
	}
}

// Base returns the pristine model the overlay stacks on.
func (o *Overlay) Base() *Model { return o.base }

// Name returns the base model's diagnostic name.
func (o *Overlay) Name() string { return o.base.name }

// NumElements returns the number of affected elements (overlays never add
// elements).
func (o *Overlay) NumElements() int { return len(o.base.elements) }

// NumRisks returns the combined number of shared risks.
func (o *Overlay) NumRisks() int { return len(o.base.risks) + len(o.extraRisks) }

// NumEdges returns the combined number of element↔risk edges.
func (o *Overlay) NumEdges() int { return o.base.edges + o.edges }

// NumFailedEdges returns the combined number of edges marked fail.
func (o *Overlay) NumFailedEdges() int { return o.base.failed + o.numFailed }

// ElementByLabel looks up an element by label.
func (o *Overlay) ElementByLabel(label string) (ElementID, bool) {
	return o.base.ElementByLabel(label)
}

// Label returns the element's label.
func (o *Overlay) Label(el ElementID) string { return o.base.elements[el].label }

// riskByRef resolves a ref against base risks first, then overlay risks.
func (o *Overlay) riskByRef(ref object.Ref) (RiskID, bool) {
	if r, ok := o.base.byRef[ref]; ok {
		return r, true
	}
	r, ok := o.extraByRef[ref]
	return r, ok
}

// RiskByRef looks up a risk node by object reference.
func (o *Overlay) RiskByRef(ref object.Ref) (RiskID, bool) { return o.riskByRef(ref) }

// Ref returns the object reference of a risk node.
func (o *Overlay) Ref(r RiskID) object.Ref { return o.refOf(r) }

func (o *Overlay) refOf(r RiskID) object.Ref {
	if int(r) < len(o.base.risks) {
		return o.base.risks[r].ref
	}
	return o.extraRisks[int(r)-len(o.base.risks)].ref
}

// risksAdj returns the element's adjacency: base edges first, overlay
// edges appended in creation order — the order a model marked in place
// would hold.
func (o *Overlay) risksAdj(el ElementID) []RiskID {
	base := o.base.elements[el].risks
	extra := o.extraDeps[el]
	if len(extra) == 0 {
		return base
	}
	out := make([]RiskID, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// dependents returns the risk's dependent elements in the order a model
// marked in place holds them (base dependents, then overlay-gained ones).
func (o *Overlay) dependents(r RiskID) []ElementID {
	if int(r) < len(o.base.risks) {
		base := o.base.risks[r].elements
		extra := o.extraElems[r]
		if len(extra) == 0 {
			return base
		}
		out := make([]ElementID, 0, len(base)+len(extra))
		out = append(out, base...)
		return append(out, extra...)
	}
	return o.extraRisks[int(r)-len(o.base.risks)].elements
}

// hasEdge reports whether the edge el↔r exists in base or overlay.
func (o *Overlay) hasEdge(el ElementID, r RiskID) bool {
	for _, existing := range o.base.elements[el].risks {
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

// edgeFailedID reports whether the edge el↔r is marked fail in base or
// overlay.
func (o *Overlay) edgeFailedID(el ElementID, r RiskID) bool {
	if o.base.edgeFailedID(el, r) {
		return true
	}
	_, failed := o.failed[el][r]
	return failed
}

// MarkFailed flags the edge between el and ref as fail, creating the edge
// (and risk) in the overlay if the base lacks it. It reports whether the
// edge transitioned to failed — the same contract as Model.MarkFailed.
func (o *Overlay) MarkFailed(el ElementID, ref object.Ref) bool {
	r, ok := o.riskByRef(ref)
	if !ok {
		r = RiskID(len(o.base.risks) + len(o.extraRisks))
		o.extraRisks = append(o.extraRisks, riskData{ref: ref})
		o.extraByRef[ref] = r
	}
	if !o.hasEdge(el, r) {
		o.extraDeps[el] = append(o.extraDeps[el], r)
		if int(r) < len(o.base.risks) {
			o.extraElems[r] = append(o.extraElems[r], el)
		} else {
			rd := &o.extraRisks[int(r)-len(o.base.risks)]
			rd.elements = append(rd.elements, el)
		}
		o.edges++
	}
	if o.edgeFailedID(el, r) {
		return false
	}
	set := o.failed[el]
	if set == nil {
		set = make(map[RiskID]struct{})
		o.failed[el] = set
	}
	set[r] = struct{}{}
	o.numFailed++
	return true
}

// EdgeFailed reports whether the edge el↔ref exists and is marked fail.
func (o *Overlay) EdgeFailed(el ElementID, ref object.Ref) bool {
	r, ok := o.riskByRef(ref)
	if !ok {
		return false
	}
	return o.edgeFailedID(el, r)
}

// IsObservation reports whether the element has at least one failed edge.
func (o *Overlay) IsObservation(el ElementID) bool {
	return o.base.IsObservation(el) || len(o.failed[el]) > 0
}

// RisksOf returns the risk refs the element depends on, sorted.
func (o *Overlay) RisksOf(el ElementID) []object.Ref {
	adj := o.risksAdj(el)
	out := make([]object.Ref, 0, len(adj))
	for _, r := range adj {
		out = append(out, o.refOf(r))
	}
	object.SortRefs(out)
	return out
}

// FailedRisksOf returns the refs of risks with a failed edge to el,
// sorted.
func (o *Overlay) FailedRisksOf(el ElementID) []object.Ref {
	out := make([]object.Ref, 0, len(o.failed[el]))
	for r := range o.base.elements[el].failed {
		out = append(out, o.base.risks[r].ref)
	}
	for r := range o.failed[el] {
		out = append(out, o.refOf(r))
	}
	object.SortRefs(out)
	return out
}

// ElementsOf returns the element IDs depending on risk ref.
func (o *Overlay) ElementsOf(ref object.Ref) []ElementID {
	r, ok := o.riskByRef(ref)
	if !ok {
		return nil
	}
	deps := o.dependents(r)
	out := make([]ElementID, len(deps))
	copy(out, deps)
	return out
}

// NumDependents returns |Gi| for risk ref.
func (o *Overlay) NumDependents(ref object.Ref) int {
	r, ok := o.riskByRef(ref)
	if !ok {
		return 0
	}
	return len(o.dependents(r))
}

// FailedElementsOf returns Oi for risk ref: the elements whose edge to
// ref is marked fail.
func (o *Overlay) FailedElementsOf(ref object.Ref) []ElementID {
	r, ok := o.riskByRef(ref)
	if !ok {
		return nil
	}
	var out []ElementID
	for _, el := range o.dependents(r) {
		if o.edgeFailedID(el, r) {
			out = append(out, el)
		}
	}
	return out
}

// FailureSignature returns the sorted IDs of all observations. Over a
// pristine base this is O(overlay marks), the per-run cost the overlay
// exists to bound.
func (o *Overlay) FailureSignature() []ElementID {
	if o.base.failed == 0 {
		var out []ElementID
		for el := range o.failed {
			out = append(out, el)
		}
		sortElementIDs(out)
		return out
	}
	var out []ElementID
	for i := range o.base.elements {
		if o.IsObservation(ElementID(i)) {
			out = append(out, ElementID(i))
		}
	}
	return out
}

// Risks returns all risk refs in the view, sorted.
func (o *Overlay) Risks() []object.Ref {
	out := make([]object.Ref, 0, o.NumRisks())
	for i := range o.base.risks {
		out = append(out, o.base.risks[i].ref)
	}
	for i := range o.extraRisks {
		out = append(out, o.extraRisks[i].ref)
	}
	object.SortRefs(out)
	return out
}

// HitRatio returns |Oi|/|Gi| for risk ref.
func (o *Overlay) HitRatio(ref object.Ref) float64 {
	r, ok := o.riskByRef(ref)
	if !ok {
		return 0
	}
	deps := o.dependents(r)
	if len(deps) == 0 {
		return 0
	}
	failed := 0
	for _, el := range deps {
		if o.edgeFailedID(el, r) {
			failed++
		}
	}
	return float64(failed) / float64(len(deps))
}

// CoverageRatio returns |Oi|/|F| for risk ref given the current failure
// signature size.
func (o *Overlay) CoverageRatio(ref object.Ref) float64 {
	sig := len(o.FailureSignature())
	if sig == 0 {
		return 0
	}
	r, ok := o.riskByRef(ref)
	if !ok {
		return 0
	}
	failed := 0
	for _, el := range o.dependents(r) {
		if o.edgeFailedID(el, r) {
			failed++
		}
	}
	return float64(failed) / float64(sig)
}

// SuspectSet returns the union of risks with a failed edge to any
// observation.
func (o *Overlay) SuspectSet() []object.Ref {
	set := make(object.Set)
	for i := range o.base.elements {
		for r := range o.base.elements[i].failed {
			set.Add(o.base.risks[r].ref)
		}
	}
	for _, marks := range o.failed {
		for r := range marks {
			set.Add(o.refOf(r))
		}
	}
	return set.Sorted()
}

// String summarizes the view with combined base + overlay counts.
func (o *Overlay) String() string { return summarize(o) }

// WriteDOT renders the overlay view as a Graphviz digraph.
func (o *Overlay) WriteDOT(w io.Writer, maxElements int) error {
	return WriteDOT(w, o, maxElements)
}

func sortElementIDs(els []ElementID) {
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
}
