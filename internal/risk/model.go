// Package risk implements the paper's risk models (§III): bipartite
// graphs between shared risks (policy objects, and switches) and the
// elements they can impact, (switch, EPG pair) triplets. An element is
// the compile.SwitchPair it models and is found by that triplet. A
// deployment has one model, the controller's (Figure 4(b)); a switch
// model (Figure 4(a)) is the range of its triplets on that switch,
// viewed through an overlay (NewSwitchOverlay). Edges are flagged success
// or fail; an element with at least one failed edge is an observation,
// and the set of observations forms the failure signature consumed by the
// localization algorithms.
package risk

import (
	"fmt"
	"slices"
	"sync/atomic"

	"scout/internal/compile"
	"scout/internal/object"
)

// ElementID is a dense index of an affected element within a Model.
type ElementID int

// RiskID is a dense index of a shared risk within a Model.
type RiskID int

// View is the read interface over an annotated risk model: what
// localization, augmentation, evaluation and the report's summary read.
// Failures are marked on a copy-on-write *Overlay over an immutable
// pristine *Model; a *Model carries marks only when an overlay was folded
// into it (BuildAnnotatedSwitchModel). An overlay and its fold yield the
// same element/risk IDs and failure sets, so every downstream result is
// byte-identical whichever backs the view. An element is looked up by its
// (switch, EPG pair) triplet.
type View interface {
	fmt.Stringer
	Name() string
	NumElements() int
	NumRisks() int
	NumEdges() int
	NumFailedEdges() int
	ElementOf(sp compile.SwitchPair) (ElementID, bool)
	RiskByRef(ref object.Ref) (RiskID, bool)
	// ForEachMark invokes fn for every failed edge, in ascending element
	// order, then ascending risk ID.
	ForEachMark(fn func(el ElementID, ref object.Ref))
}

type elementData struct {
	risks  []RiskID
	failed map[RiskID]struct{}
}

type riskData struct {
	ref      object.Ref
	elements []ElementID
}

// Model is a bipartite risk graph whose elements are a footprint's
// triplets. Nothing changes a Model once NewModel returns it: failures
// are marked on an Overlay over it, so concurrent readers and overlays
// share one. Its topology (elements, risks, edges) is what a localization
// plan compiles, once per model.
type Model struct {
	name     string
	pairs    []compile.SwitchPair // element i's triplet, ascending
	elements []elementData

	risks []riskData
	byRef map[object.Ref]RiskID
	edges int
	// failed counts failed edges; only a folded overlay has any (the
	// elements' failed sets hold them).
	failed int

	plan atomic.Pointer[any] // the compiled localization plan (plancache.go)
}

// NewModel builds a pristine model with a diagnostic name and one element
// per triplet of fp: element i is fp.Pairs[i] and depends on fp.Risks[i],
// whose refs must not repeat. Risks are numbered in the order the
// elements first name them. The model keeps fp.Pairs, which must not
// change after, and panics unless its triplets strictly ascend: an element
// is found by binary search on its triplet.
func NewModel(name string, fp compile.Footprint) *Model {
	m := &Model{
		name:     name,
		pairs:    fp.Pairs,
		elements: make([]elementData, len(fp.Pairs)),
		byRef:    make(map[object.Ref]RiskID),
	}
	for i := range fp.Pairs {
		if i > 0 && fp.Pairs[i-1].Compare(fp.Pairs[i]) >= 0 {
			panic(fmt.Sprintf("risk: model %q: triplet %d does not ascend", name, i))
		}
		refs := fp.Risks[i]
		risks := make([]RiskID, len(refs))
		for j, ref := range refs {
			r, ok := m.byRef[ref]
			if !ok {
				r = RiskID(len(m.risks))
				m.risks = append(m.risks, riskData{ref: ref})
				m.byRef[ref] = r
			}
			risks[j] = r
			m.risks[r].elements = append(m.risks[r].elements, ElementID(i))
		}
		m.elements[i].risks = risks
		m.edges += len(refs)
	}
	return m
}

// Name returns the model's diagnostic name.
func (m *Model) Name() string { return m.name }

// NumElements returns the number of affected elements.
func (m *Model) NumElements() int { return len(m.elements) }

// NumRisks returns the number of shared risks.
func (m *Model) NumRisks() int { return len(m.risks) }

// NumEdges returns the number of element↔risk edges.
func (m *Model) NumEdges() int { return m.edges }

// NumFailedEdges returns the number of edges marked fail.
func (m *Model) NumFailedEdges() int { return m.failed }

// ElementOf looks up the element of triplet sp.
func (m *Model) ElementOf(sp compile.SwitchPair) (ElementID, bool) {
	i, ok := slices.BinarySearchFunc(m.pairs, sp, compile.SwitchPair.Compare)
	return ElementID(i), ok
}

// RiskByRef looks up a risk node by object reference.
func (m *Model) RiskByRef(ref object.Ref) (RiskID, bool) {
	id, ok := m.byRef[ref]
	return id, ok
}

// ElementsOf returns the element IDs depending on risk ref.
func (m *Model) ElementsOf(ref object.Ref) []ElementID {
	r, ok := m.byRef[ref]
	if !ok {
		return nil
	}
	out := make([]ElementID, len(m.risks[r].elements))
	copy(out, m.risks[r].elements)
	return out
}

// ForEachMark invokes fn for every edge marked fail, in ascending element
// order, then ascending risk ID: the marks of the overlay folded into the
// model, which a localization run reads as its delta over the model's
// compiled topology.
func (m *Model) ForEachMark(fn func(el ElementID, ref object.Ref)) {
	for el := range m.elements {
		for _, r := range sortedKeys(m.elements[el].failed) {
			fn(ElementID(el), m.risks[r].ref)
		}
	}
}

// Risks returns all risk refs in the model, sorted.
func (m *Model) Risks() []object.Ref {
	out := make([]object.Ref, 0, len(m.risks))
	for i := range m.risks {
		out = append(out, m.risks[i].ref)
	}
	object.SortRefs(out)
	return out
}

// String summarizes the model.
func (m *Model) String() string { return summarize(m) }

// summarize renders the one-line digest shared by every view kind; the
// counts go through the View interface, so an overlay reports its base's
// elements, risks and edges with its own added, and its own failure
// marks.
func summarize(v View) string {
	return fmt.Sprintf("risk model %q: %d elements, %d risks, %d edges (%d failed)",
		v.Name(), v.NumElements(), v.NumRisks(), v.NumEdges(), v.NumFailedEdges())
}
