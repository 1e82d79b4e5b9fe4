// Package risk implements the paper's risk models (§III): bipartite
// graphs between shared risks (policy objects, and switches) and the
// elements they can impact, (switch, EPG pair) triplets. An element is
// the compile.SwitchPair it models and is found by that triplet. A
// deployment has one model, the controller's (Figure 4(b)); a switch
// model (Figure 4(a)) is the range of its triplets on that switch. Edges
// are flagged success or fail; an element with at least one failed edge
// is an observation, and the set of observations forms the failure
// signature consumed by the localization algorithms.
//
// Failures are marked once per run (§III-C): MarkSwitch turns a switch's
// missing rules into one sorted run of failed edges, which the switch
// localizes on (SwitchMarks.View), and NewOverlay concatenates the runs,
// in ascending switch order, into the controller's overlay.
package risk

import (
	"cmp"
	"fmt"
	"slices"

	"scout/internal/compile"
	"scout/internal/object"
)

// ElementID is a dense index of an affected element within a Model.
type ElementID int32

// RiskID is a dense index of a shared risk within a Model.
type RiskID int32

// View is the read interface over an annotated risk model: what
// localization, evaluation and the report's summary read. Failures are
// marked on an *Overlay over an immutable pristine *Model; a *Model
// carries marks only when an overlay was folded into it
// (BuildAnnotatedSwitchModel). An overlay and its fold read the same
// elements, refs, edges and failure sets, though not always the same risk
// IDs (the fold numbers the overlay's created risks among the base's), so
// every downstream result is byte-identical whichever backs the view.
type View interface {
	fmt.Stringer
	Name() string
	NumElements() int
	NumRisks() int
	NumEdges() int
	NumFailedEdges() int
}

// Model is a bipartite risk graph whose elements are a footprint's
// triplets. Nothing changes a Model once NewModel returns it: failures
// are marked on an Overlay over it, so concurrent readers and overlays
// share one. Its risks are numbered in Ref.Less order, and its edges are
// laid out both ways as compressed rows, each ascending — the arrays
// localization reads as they are.
type Model struct {
	name  string
	pairs []compile.SwitchPair // element i's triplet, ascending
	refs  []object.Ref         // risk r's ref, ascending
	byRef map[object.Ref]RiskID

	// Risk r's dependents are deps[depOff[r]:depOff[r+1]]; element el's
	// risks are adj[adjOff[el]:adjOff[el+1]].
	depOff []int
	deps   []ElementID
	adjOff []int
	adj    []RiskID

	// marks are the failed edges, by element, then risk; only a folded
	// overlay has any.
	marks []Mark
}

// Mark is a failed edge: element El's edge to risk Risk.
type Mark struct {
	El   ElementID
	Risk RiskID
}

// compare orders marks by element, then risk, as every mark slice is.
func (a Mark) compare(b Mark) int {
	if a.El != b.El {
		return cmp.Compare(a.El, b.El)
	}
	return cmp.Compare(a.Risk, b.Risk)
}

// NewModel builds a pristine model with a diagnostic name and one element
// per triplet of fp: element i is fp.Pairs[i] and depends on fp.Risks[i].
// The model keeps fp.Pairs, which must not change after, and panics unless
// its triplets strictly ascend (an element is found by binary search on its
// triplet) and no risk list repeats a ref.
func NewModel(name string, fp compile.Footprint) *Model {
	m, err := newModel(name, fp)
	if err != nil {
		panic(fmt.Sprintf("risk: model %q: %v", name, err))
	}
	return m
}

// newModel is NewModel, returning its refusal as a footprint error. Each
// element's risks are first numbered as met, then renumbered in ref order;
// sorted, a repeated ref in an element's row is an adjacent pair.
func newModel(name string, fp compile.Footprint) (*Model, error) {
	n := len(fp.Pairs)
	m := &Model{name: name, pairs: fp.Pairs, byRef: make(map[object.Ref]RiskID), adjOff: make([]int, n+1)}
	for i := range fp.Pairs {
		if i > 0 && fp.Pairs[i-1].Compare(fp.Pairs[i]) >= 0 {
			return nil, fmt.Errorf("footprint triplet %d (%v) does not ascend", i, fp.Pairs[i])
		}
		m.adjOff[i+1] = m.adjOff[i] + len(fp.Risks[i])
	}
	m.adj = make([]RiskID, 0, m.adjOff[n])
	for _, refs := range fp.Risks {
		for _, ref := range refs {
			r, ok := m.byRef[ref]
			if !ok {
				r = RiskID(len(m.refs))
				m.refs = append(m.refs, ref)
				m.byRef[ref] = r
			}
			m.adj = append(m.adj, r)
		}
	}
	renum := make([]RiskID, len(m.refs)) // first-met ID → ref-order ID
	object.SortRefs(m.refs)
	for r, ref := range m.refs {
		renum[m.byRef[ref]] = RiskID(r)
		m.byRef[ref] = RiskID(r)
	}

	m.depOff = make([]int, len(m.refs)+1)
	for el := range fp.Pairs {
		row := m.adj[m.adjOff[el]:m.adjOff[el+1]]
		for k, old := range row {
			row[k] = renum[old]
		}
		slices.Sort(row)
		for k, r := range row {
			if k > 0 && row[k-1] == r {
				return nil, fmt.Errorf("footprint triplet %d (%v) lists %v twice", el, fp.Pairs[el], m.refs[r])
			}
			m.depOff[r+1]++
		}
	}
	for r := range m.refs {
		m.depOff[r+1] += m.depOff[r]
	}
	// Filled element by element, every risk's row ascends.
	m.deps = make([]ElementID, len(m.adj))
	next := slices.Clone(m.depOff[:len(m.refs)])
	for el := range fp.Pairs {
		for _, r := range m.RisksOf(ElementID(el)) {
			m.deps[next[r]] = ElementID(el)
			next[r]++
		}
	}
	return m, nil
}

// Name returns the model's diagnostic name.
func (m *Model) Name() string { return m.name }

// NumElements returns the number of affected elements.
func (m *Model) NumElements() int { return len(m.pairs) }

// NumRisks returns the number of shared risks.
func (m *Model) NumRisks() int { return len(m.refs) }

// NumEdges returns the number of element↔risk edges.
func (m *Model) NumEdges() int { return len(m.adj) }

// NumFailedEdges returns the number of edges marked fail.
func (m *Model) NumFailedEdges() int { return len(m.marks) }

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

// Risks returns every risk's ref, indexed by RiskID: ascending. The slice
// is the model's own; callers must not modify it.
func (m *Model) Risks() []object.Ref { return m.refs[:len(m.refs):len(m.refs)] }

// Dependents returns the elements depending on risk r, ascending. The row
// is the model's own; callers must not modify it.
func (m *Model) Dependents(r RiskID) []ElementID {
	return m.deps[m.depOff[r]:m.depOff[r+1]:m.depOff[r+1]]
}

// RisksOf returns the risks element el depends on, ascending. The row is
// the model's own; callers must not modify it.
func (m *Model) RisksOf(el ElementID) []RiskID {
	return m.adj[m.adjOff[el]:m.adjOff[el+1]:m.adjOff[el+1]]
}

// Marks returns the failed edges, ascending by element, then risk: the
// marks of the overlay folded into the model, which a localization run
// reads as its delta over the model. The slice is the model's own;
// callers must not modify it.
func (m *Model) Marks() []Mark { return m.marks[:len(m.marks):len(m.marks)] }

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
