// Package risk implements the paper's risk models (§III): bipartite
// graphs between shared risks (policy objects, and switches in the
// controller model) and the elements they can impact (EPG pairs, or
// (switch, EPG pair) triplets). Edges are flagged success or fail; an
// element with at least one failed edge is an observation, and the set of
// observations forms the failure signature consumed by the localization
// algorithms.
package risk

import (
	"fmt"

	"scout/internal/object"
)

// ElementID is a dense index of an affected element within a Model.
type ElementID int

// RiskID is a dense index of a shared risk within a Model.
type RiskID int

// View is the read interface over an annotated risk model: what
// localization, augmentation, evaluation and the report's summary read.
// A *Model annotated in place and a copy-on-write *Overlay over an
// immutable pristine core are interchangeable behind it: both yield the
// same element/risk IDs and failure sets, so every downstream result is
// byte-identical regardless of which backs the view.
type View interface {
	fmt.Stringer
	Name() string
	NumElements() int
	NumRisks() int
	NumEdges() int
	NumFailedEdges() int
	ElementByLabel(label string) (ElementID, bool)
	RiskByRef(ref object.Ref) (RiskID, bool)
}

// Marker is a View that also accepts failure annotation — what risk-model
// augmentation and fault injection write against. Both *Model and
// *Overlay implement it.
type Marker interface {
	View
	MarkFailed(el ElementID, ref object.Ref)
}

var (
	_ Marker = (*Model)(nil)
	_ Marker = (*Overlay)(nil)
)

type elementData struct {
	risks  []RiskID
	failed map[RiskID]struct{}
}

type riskData struct {
	ref      object.Ref
	elements []ElementID
}

// Model is a bipartite risk graph. Build it with EnsureElement/AddEdge, then
// annotate failures with MarkFailed. A Model is not safe for concurrent
// mutation.
type Model struct {
	name     string
	elements []elementData
	byLabel  map[string]ElementID

	risks  []riskData
	byRef  map[object.Ref]RiskID
	edges  int
	failed int // failed edge count

	// rev counts mutations; planCache holds the compiled localization
	// plan for the revision it was built at (see plancache.go).
	rev       uint64
	planCache planCacheSlot
}

// NewModel creates an empty risk model with a diagnostic name.
func NewModel(name string) *Model {
	return &Model{
		name:    name,
		byLabel: make(map[string]ElementID),
		byRef:   make(map[object.Ref]RiskID),
	}
}

// newModelSized is NewModel with room for the given number of elements.
func newModelSized(name string, elements int) *Model {
	m := NewModel(name)
	if elements > 0 {
		m.elements = make([]elementData, 0, elements)
		m.byLabel = make(map[string]ElementID, elements)
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

// EnsureElement returns the element with the given label, creating it if
// needed.
func (m *Model) EnsureElement(label string) ElementID {
	if id, ok := m.byLabel[label]; ok {
		return id
	}
	id := ElementID(len(m.elements))
	m.elements = append(m.elements, elementData{})
	m.byLabel[label] = id
	m.rev++
	return id
}

// ElementByLabel looks up an element by label.
func (m *Model) ElementByLabel(label string) (ElementID, bool) {
	id, ok := m.byLabel[label]
	return id, ok
}

// EnsureRisk returns the risk node for ref, creating it if needed.
func (m *Model) EnsureRisk(ref object.Ref) RiskID {
	if id, ok := m.byRef[ref]; ok {
		return id
	}
	id := RiskID(len(m.risks))
	m.risks = append(m.risks, riskData{ref: ref})
	m.byRef[ref] = id
	m.rev++
	return id
}

// RiskByRef looks up a risk node by object reference.
func (m *Model) RiskByRef(ref object.Ref) (RiskID, bool) {
	id, ok := m.byRef[ref]
	return id, ok
}

// AddEdge connects an element to a risk (idempotent). New edges start in
// the success state.
func (m *Model) AddEdge(el ElementID, ref object.Ref) {
	r := m.EnsureRisk(ref)
	for _, existing := range m.elements[el].risks {
		if existing == r {
			return
		}
	}
	m.elements[el].risks = append(m.elements[el].risks, r)
	m.risks[r].elements = append(m.risks[r].elements, el)
	m.edges++
	m.rev++
}

// addElement is EnsureElement and one AddEdge per ref, for a label the
// model does not hold and refs that do not repeat: nothing is searched
// for, and the adjacency is allocated once at its final size.
func (m *Model) addElement(label string, refs []object.Ref) ElementID {
	el := ElementID(len(m.elements))
	var risks []RiskID
	if len(refs) > 0 {
		risks = make([]RiskID, len(refs), len(refs)+1) // and a switch risk
	}
	for i, ref := range refs {
		r := m.EnsureRisk(ref)
		risks[i] = r
		m.risks[r].elements = append(m.risks[r].elements, el)
	}
	m.elements = append(m.elements, elementData{risks: risks})
	m.byLabel[label] = el
	m.edges += len(refs)
	m.rev += 1 + uint64(len(refs))
	return el
}

// MarkFailed flags the edge between el and ref as fail, creating the edge
// if it did not exist (an observed violation always implicates the object,
// §III-C). Marking a failed edge again changes nothing.
func (m *Model) MarkFailed(el ElementID, ref object.Ref) {
	m.AddEdge(el, ref)
	r := m.byRef[ref]
	e := &m.elements[el]
	if e.failed == nil {
		e.failed = make(map[RiskID]struct{})
	}
	if _, already := e.failed[r]; already {
		return
	}
	e.failed[r] = struct{}{}
	m.failed++
	m.rev++
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

// FailedElementsOf returns Oi for risk ref: the elements whose edge to ref
// is marked fail.
func (m *Model) FailedElementsOf(ref object.Ref) []ElementID {
	r, ok := m.byRef[ref]
	if !ok {
		return nil
	}
	var out []ElementID
	for _, el := range m.risks[r].elements {
		if _, f := m.elements[el].failed[r]; f {
			out = append(out, el)
		}
	}
	return out
}

// FailureSignature returns the sorted IDs of all observations (elements
// with at least one failed edge) — the paper's failure signature F.
func (m *Model) FailureSignature() []ElementID {
	var out []ElementID
	for i := range m.elements {
		if len(m.elements[i].failed) > 0 {
			out = append(out, ElementID(i))
		}
	}
	return out
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
