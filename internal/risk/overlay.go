// Copy-on-write failure overlays over an immutable pristine risk model.
//
// The pristine Model is a shared read-only core that nothing marks; each
// run puts a small overlay over it that holds only the run's failed edges,
// a sorted slice, and the rare risks a mark creates. Localization reads
// the base's arrays as they are and the overlay's marks as its delta. fold
// turns an overlay into a Model of its own, for the one caller that wants
// a marked model.

package risk

import (
	"fmt"
	"slices"

	"scout/internal/compile"
	"scout/internal/object"
)

// Overlay is a copy-on-write failure view over a base Model. The base
// never changes, so concurrent readers (including other overlays over the
// same base) are safe.
//
// An overlay's failed edges are the marks of switches' missing rules
// (MarkSwitch): an overlay never adds elements, and an edge or risk is
// created when a mark names one the base lacks (the §III-C rule that an
// observed violation always implicates the object). Created risks are
// numbered after the base's, in the order marking first names them. The
// base is pristine: every failure an overlay reports is one of its marks.
//
// An overlay views a range of its base's elements: all of them, or one
// switch's run (SwitchMarks.View). Its element i is base element lo+i.
type Overlay struct {
	base   *Model
	lo, hi ElementID

	// extra holds the refs of created risks; their IDs continue the
	// base's dense numbering.
	extra []object.Ref

	// marks are the failed edges, ascending by element, then risk, in the
	// base's element numbering.
	marks []Mark
}

// NewOverlay creates the overlay over base carrying runs' controller
// marks: the controller's view (paper Figure 4(b)) of the inconsistent
// switches' runs in ascending switch order, whose concatenation is already
// sorted; other orders are merged. The risks runs create are numbered in
// the order the runs name them. base must carry no failed edge (NewOverlay
// panics otherwise), and every run must be over it.
func NewOverlay(base *Model, runs ...*SwitchMarks) *Overlay {
	if len(base.marks) > 0 {
		panic(fmt.Sprintf("risk: overlay over %s, which is not pristine", base))
	}
	o := &Overlay{base: base, hi: ElementID(len(base.pairs))}
	n := 0
	for _, s := range runs {
		n += len(s.ctrl)
	}
	o.marks = make([]Mark, 0, n)
	for _, s := range runs {
		o.add(s.ctrl, s.extra)
	}
	return o
}

// add merges marks into o. A risk numbered NumRisks()+k of the base in
// them is extra[k], renumbered as o numbers it: a created risk o lacks is
// numbered after o's. Every mark must be over o's base and in its range.
func (o *Overlay) add(marks []Mark, extra []object.Ref) {
	if len(extra) > 0 {
		nb := RiskID(len(o.base.refs))
		ids := make([]RiskID, len(extra))
		for k, ref := range extra {
			ids[k] = nb + indexOf(&o.extra, ref)
		}
		marks = slices.Clone(marks)
		for i, mk := range marks {
			if mk.Risk >= nb {
				marks[i].Risk = ids[mk.Risk-nb]
			}
		}
		slices.SortFunc(marks, Mark.compare)
	}
	o.marks = union(o.marks, marks)
}

// union returns the sorted union of a and b, each sorted without repeats:
// b appended to a when it follows a, as the runs of ascending switches do.
func union(a, b []Mark) []Mark {
	if len(a) == 0 || len(b) == 0 || a[len(a)-1].compare(b[0]) < 0 {
		return append(a, b...)
	}
	out := make([]Mark, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := a[0].compare(b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
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
func (o *Overlay) NumRisks() int { return len(o.base.refs) + len(o.extra) }

// NumEdges returns the combined number of element↔risk edges in the
// overlay's range.
func (o *Overlay) NumEdges() int {
	return o.base.adjOff[o.hi] - o.base.adjOff[o.lo] + len(o.CreatedEdges())
}

// NumFailedEdges returns the number of edges the overlay marked fail.
func (o *Overlay) NumFailedEdges() int { return len(o.marks) }

// refOf returns the object reference of a base or created risk.
func (o *Overlay) refOf(r RiskID) object.Ref {
	if int(r) < len(o.base.refs) {
		return o.base.refs[r]
	}
	return o.extra[int(r)-len(o.base.refs)]
}

// Marks returns the failed edges, ascending by element, then risk, in
// the base's element numbering, as Range is. The slice is the overlay's
// own; callers must not modify it.
func (o *Overlay) Marks() []Mark { return slices.Clip(o.marks) }

// CreatedEdges returns the marks on edges the base lacks, ordered and
// numbered as Marks: the edges the marks created.
func (o *Overlay) CreatedEdges() []Mark {
	var out []Mark
	for _, mk := range o.marks {
		if _, ok := slices.BinarySearch(o.base.RisksOf(mk.El), mk.Risk); !ok {
			out = append(out, mk)
		}
	}
	return out
}

// ExtraRiskRefs returns the refs of created risks, in creation order
// (their RiskIDs continue the base's dense numbering). The slice is the
// overlay's own; callers must not modify it.
func (o *Overlay) ExtraRiskRefs() []object.Ref { return slices.Clip(o.extra) }

// FailureSignature returns the sorted IDs of all observations in
// O(overlay marks), the per-run cost the overlay exists to bound.
func (o *Overlay) FailureSignature() []ElementID {
	out := make([]ElementID, len(o.marks))
	for i, mk := range o.marks {
		out[i] = mk.El - o.lo
	}
	return slices.Compact(out)
}

// SuspectSet returns the union of risks with a failed edge to any
// observation: the objects an admin would have to examine without fault
// localization (the denominator of the paper's suspect-set-reduction
// metric γ).
func (o *Overlay) SuspectSet() []object.Ref {
	out := make([]object.Ref, 0, len(o.marks))
	for _, mk := range o.marks {
		out = append(out, o.refOf(mk.Risk))
	}
	object.SortRefs(out)
	return slices.Compact(out)
}

// String summarizes the view with the overlay's counts.
func (o *Overlay) String() string { return summarize(o) }

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
	for _, e := range o.CreatedEdges() {
		risks[e.El] = append(risks[e.El], o.refOf(e.Risk))
	}
	m := NewModel(b.name, compile.Footprint{Pairs: b.pairs, Risks: risks})
	m.marks = make([]Mark, len(o.marks))
	for i, mk := range o.marks {
		m.marks[i] = Mark{mk.El, m.byRef[o.refOf(mk.Risk)]}
	}
	slices.SortFunc(m.marks, Mark.compare)
	return m
}
