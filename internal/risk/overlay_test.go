package risk

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// viewsEqual asserts that a view agrees with a model on every View read
// and on its graph: the same element per label, the same risk per ref, and
// the same edges, failed alike.
func viewsEqual(t *testing.T, want *Model, got View) {
	t.Helper()
	if want.String() != got.String() { // the name and every count
		t.Fatalf("%s vs %s", want, got)
	}
	for label, el := range want.byLabel {
		if id, ok := got.ElementByLabel(label); !ok || id != el {
			t.Errorf("ElementByLabel(%q) = %d,%v, want %d", label, id, ok, el)
		}
	}
	for _, ref := range want.Risks() {
		wr, _ := want.RiskByRef(ref)
		if gr, ok := got.RiskByRef(ref); !ok || wr != gr {
			t.Errorf("RiskByRef(%s): %d vs %d,%v", ref, wr, gr, ok)
		}
	}
	if w, g := edges(want), edges(got); !reflect.DeepEqual(w, g) {
		t.Errorf("edges differ:\n%v\n%v", w, g)
	}
}

// edge is one element↔risk edge of a view.
type edge struct {
	el  ElementID
	ref object.Ref
}

// edges returns whether each edge of v is marked fail: a model's read
// through its methods, an overlay's as its base's plus the edges and marks
// the overlay adds.
func edges(v View) map[edge]bool {
	m, _ := v.(*Model)
	o, isOverlay := v.(*Overlay)
	if isOverlay {
		m = o.Base()
	}
	out := make(map[edge]bool)
	for _, ref := range m.Risks() {
		for _, el := range m.ElementsOf(ref) {
			out[edge{el, ref}] = false
		}
		for _, el := range m.FailedElementsOf(ref) {
			out[edge{el, ref}] = true
		}
	}
	if isOverlay {
		o.ForEachOverlayEdge(func(el ElementID, ref object.Ref) { out[edge{el, ref}] = false })
		o.ForEachOverlayMark(func(el ElementID, ref object.Ref) { out[edge{el, ref}] = true })
	}
	return out
}

// TestOverlayMatchesClone drives random MarkFailed sequences — including
// marks that create edges and risks absent from the base — against a
// second build of the pristine model (the builders are deterministic) and
// an overlay over the first, and asserts every read agrees. This is
// the overlay's core contract: indistinguishable from a copy of the model
// marked in place.
func TestOverlayMatchesClone(t *testing.T) {
	d := threeTier(t)
	pristine := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clone := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
		ov := NewOverlay(pristine)

		refs := pristine.Risks()
		// Mix in refs the base does not know, so marks create overlay
		// edges and risks.
		refs = append(refs, object.Filter(9001), object.EPG(77), object.Contract(555))
		for i := 0; i < 12; i++ {
			el := ElementID(rng.Intn(pristine.NumElements()))
			ref := refs[rng.Intn(len(refs))]
			cGot := clone.MarkFailed(el, ref)
			oGot := ov.MarkFailed(el, ref)
			if cGot != oGot {
				t.Fatalf("seed %d mark %d: MarkFailed(%d,%s) clone=%v overlay=%v",
					seed, i, el, ref, cGot, oGot)
			}
		}
		viewsEqual(t, clone, ov)
		if !reflect.DeepEqual(clone.FailureSignature(), ov.FailureSignature()) {
			t.Errorf("FailureSignature: %v vs %v", clone.FailureSignature(), ov.FailureSignature())
		}
		suspects := make(object.Set)
		for e, failed := range edges(clone) {
			if failed {
				suspects.Add(e.ref)
			}
		}
		if !reflect.DeepEqual(suspects.Sorted(), ov.SuspectSet()) {
			t.Errorf("SuspectSet: %v vs %v", suspects.Sorted(), ov.SuspectSet())
		}
	}

	// The pristine base must be untouched by every overlay and clone.
	viewsEqual(t, BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true}), pristine)
}

// TestOverlayEmpty pins the cheap-warm-run property: an unmarked overlay
// reports exactly the pristine base's state.
func TestOverlayEmpty(t *testing.T) {
	d := threeTier(t)
	pristine := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
	ov := NewOverlay(pristine)
	viewsEqual(t, pristine, ov)
	if ov.Base() != pristine {
		t.Error("Base must return the pristine core")
	}
	if len(ov.FailureSignature()) != 0 || ov.NumFailedEdges() != 0 {
		t.Error("fresh overlay must have no failures")
	}
}

// TestOverlayStacks covers overlays over an already-annotated base: the
// combined counts and failure sets must include both layers.
func TestOverlayStacks(t *testing.T) {
	m := NewModel("stack")
	a := m.EnsureElement("a")
	b := m.EnsureElement("b")
	m.AddEdge(a, object.Filter(1))
	m.AddEdge(b, object.Filter(1))
	m.MarkFailed(a, object.Filter(1))

	ov := NewOverlay(m)
	if !slices.Contains(ov.FailureSignature(), a) || ov.NumFailedEdges() != 1 {
		t.Fatal("overlay must see the base's failures")
	}
	if ov.MarkFailed(a, object.Filter(1)) {
		t.Error("re-marking a base-failed edge must be a no-op")
	}
	if !ov.MarkFailed(b, object.Filter(1)) {
		t.Error("marking a healthy base edge must transition")
	}
	if got := ov.NumFailedEdges(); got != 2 {
		t.Errorf("NumFailedEdges = %d, want 2", got)
	}
	if sig := ov.FailureSignature(); len(sig) != 2 {
		t.Errorf("FailureSignature = %v", sig)
	}
	if m.NumFailedEdges() != 1 {
		t.Error("overlay marks must not touch the base")
	}
}

// TestAugmentControllerModelPatch: a patch computed read-only on a pristine
// model and replayed into an overlay marks exactly what one computed on,
// and applied to, the model itself marks.
func TestAugmentControllerModelPatch(t *testing.T) {
	d := threeTier(t)
	var missing []rule.Rule
	for _, r := range d.RulesFor(2) {
		if r.Match.SrcEPG == 1 && r.Match.DstEPG == 2 {
			missing = append(missing, r)
		}
	}
	if len(missing) == 0 {
		t.Fatal("setup: no missing rules")
	}

	direct := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
	wantMarked := AugmentControllerModelPatch(direct, 2, missing, d.Provenance).Apply(direct)

	pristine := BuildControllerModel(d, ControllerModelOptions{IncludeSwitchRisk: true})
	patch := AugmentControllerModelPatch(pristine, 2, missing, d.Provenance)
	ov := NewOverlay(pristine)
	if got := patch.Apply(ov); got != wantMarked || got == 0 {
		t.Errorf("patch Apply marked %d, direct marked %d; want equal and nonzero", got, wantMarked)
	}
	viewsEqual(t, direct, ov)

	var nilPatch *Patch
	if nilPatch.Apply(ov) != 0 {
		t.Error("nil patch must apply nothing")
	}
}
