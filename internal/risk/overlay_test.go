package risk

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// viewsEqual asserts that two views expose identical state through every
// View read method, risk by risk, and label their elements alike. The
// per-element sets and ratios tests derive (view_test.go) are functions of
// what it compares.
func viewsEqual(t *testing.T, want, got View) {
	t.Helper()
	if want.Name() != got.Name() {
		t.Errorf("Name: %q vs %q", want.Name(), got.Name())
	}
	for _, pair := range [][2]int{
		{want.NumElements(), got.NumElements()},
		{want.NumRisks(), got.NumRisks()},
		{want.NumEdges(), got.NumEdges()},
		{want.NumFailedEdges(), got.NumFailedEdges()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("counts differ: want %v got %v (%s vs %s)", pair[0], pair[1], want, got)
		}
	}
	if !reflect.DeepEqual(want.Risks(), got.Risks()) {
		t.Fatalf("Risks: %v vs %v", want.Risks(), got.Risks())
	}
	if !reflect.DeepEqual(want.FailureSignature(), got.FailureSignature()) {
		t.Errorf("FailureSignature: %v vs %v", want.FailureSignature(), got.FailureSignature())
	}
	if !reflect.DeepEqual(want.SuspectSet(), got.SuspectSet()) {
		t.Errorf("SuspectSet: %v vs %v", want.SuspectSet(), got.SuspectSet())
	}
	for label, el := range modelOf(want).byLabel {
		if id, ok := got.ElementByLabel(label); !ok || id != el {
			t.Errorf("ElementByLabel(%q) = %d,%v, want %d", label, id, ok, el)
		}
	}
	for _, ref := range want.Risks() {
		wr, _ := want.RiskByRef(ref)
		gr, ok := got.RiskByRef(ref)
		if !ok || wr != gr {
			t.Errorf("RiskByRef(%s): %d vs %d,%v", ref, wr, gr, ok)
		}
		if !reflect.DeepEqual(want.ElementsOf(ref), got.ElementsOf(ref)) {
			t.Errorf("ElementsOf(%s): %v vs %v", ref, want.ElementsOf(ref), got.ElementsOf(ref))
		}
		if !reflect.DeepEqual(want.FailedElementsOf(ref), got.FailedElementsOf(ref)) {
			t.Errorf("FailedElementsOf(%s): %v vs %v", ref, want.FailedElementsOf(ref), got.FailedElementsOf(ref))
		}
	}
}

// modelOf returns the model holding v's element labels: v itself, or an
// overlay's base.
func modelOf(v View) *Model {
	if o, ok := v.(*Overlay); ok {
		return o.Base()
	}
	return v.(*Model)
}

// TestOverlayMatchesClone drives random MarkFailed sequences — including
// marks that create edges and risks absent from the base — against a
// second build of the pristine model (the builders are deterministic) and
// an overlay over the first, and asserts every View read agrees. This is
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
		if clone.String() != ov.String() {
			t.Errorf("String: %q vs %q", clone, ov)
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
	if !isObservation(ov, a) || ov.NumFailedEdges() != 1 {
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

// TestAugmentControllerModelPatch checks patch-based augmentation against
// the direct path: computing patches read-only and replaying them must
// mark exactly what interleaved augmentation marks.
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
	wantMarked := AugmentControllerModel(direct, 2, missing, d.Provenance)

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
