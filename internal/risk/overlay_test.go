package risk

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

// viewsEqual asserts that two views expose identical state through every
// View read method, element by element and risk by risk.
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
	for i := 0; i < want.NumElements(); i++ {
		el := ElementID(i)
		if want.Label(el) != got.Label(el) {
			t.Errorf("Label(%d): %q vs %q", i, want.Label(el), got.Label(el))
		}
		if id, ok := got.ElementByLabel(want.Label(el)); !ok || id != el {
			t.Errorf("ElementByLabel(%q) = %d,%v", want.Label(el), id, ok)
		}
		if want.IsObservation(el) != got.IsObservation(el) {
			t.Errorf("IsObservation(%d): %v vs %v", i, want.IsObservation(el), got.IsObservation(el))
		}
		if !reflect.DeepEqual(want.RisksOf(el), got.RisksOf(el)) {
			t.Errorf("RisksOf(%d): %v vs %v", i, want.RisksOf(el), got.RisksOf(el))
		}
		if !reflect.DeepEqual(want.FailedRisksOf(el), got.FailedRisksOf(el)) {
			t.Errorf("FailedRisksOf(%d): %v vs %v", i, want.FailedRisksOf(el), got.FailedRisksOf(el))
		}
	}
	for _, ref := range want.Risks() {
		wr, _ := want.RiskByRef(ref)
		gr, ok := got.RiskByRef(ref)
		if !ok || wr != gr {
			t.Errorf("RiskByRef(%s): %d vs %d,%v", ref, wr, gr, ok)
		}
		if want.Ref(wr) != got.Ref(gr) {
			t.Errorf("Ref round trip differs for %s", ref)
		}
		if !reflect.DeepEqual(want.ElementsOf(ref), got.ElementsOf(ref)) {
			t.Errorf("ElementsOf(%s): %v vs %v", ref, want.ElementsOf(ref), got.ElementsOf(ref))
		}
		if !reflect.DeepEqual(want.FailedElementsOf(ref), got.FailedElementsOf(ref)) {
			t.Errorf("FailedElementsOf(%s): %v vs %v", ref, want.FailedElementsOf(ref), got.FailedElementsOf(ref))
		}
		if want.NumDependents(ref) != got.NumDependents(ref) {
			t.Errorf("NumDependents(%s)", ref)
		}
		if want.HitRatio(ref) != got.HitRatio(ref) {
			t.Errorf("HitRatio(%s): %v vs %v", ref, want.HitRatio(ref), got.HitRatio(ref))
		}
		if want.CoverageRatio(ref) != got.CoverageRatio(ref) {
			t.Errorf("CoverageRatio(%s)", ref)
		}
		for _, els := range [][]ElementID{want.ElementsOf(ref)} {
			for _, el := range els {
				if want.EdgeFailed(el, ref) != got.EdgeFailed(el, ref) {
					t.Errorf("EdgeFailed(%d,%s)", el, ref)
				}
			}
		}
	}
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
	pristineDOT := dotString(t, pristine)

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
		if cd, od := dotString(t, clone), dotString(t, ov); cd != od {
			t.Errorf("seed %d: DOT output differs:\n%s\nvs\n%s", seed, cd, od)
		}
	}

	// The pristine base must be untouched by every overlay and clone.
	if pristine.NumFailedEdges() != 0 {
		t.Fatal("overlay marks leaked into the pristine base")
	}
	if dotString(t, pristine) != pristineDOT {
		t.Fatal("pristine base changed during overlay use")
	}
}

func dotString(t *testing.T, v View) string {
	t.Helper()
	var b strings.Builder
	if err := WriteDOT(&b, v, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
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
	if !ov.IsObservation(a) || ov.NumFailedEdges() != 1 {
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
	if patch.Empty() {
		t.Fatal("patch must carry marks")
	}
	ov := NewOverlay(pristine)
	if got := patch.Apply(ov); got != wantMarked {
		t.Errorf("patch Apply marked %d, direct marked %d", got, wantMarked)
	}
	viewsEqual(t, direct, ov)

	var nilPatch *Patch
	if !nilPatch.Empty() || nilPatch.Apply(ov) != 0 {
		t.Error("nil patch must be empty and apply nothing")
	}
}
