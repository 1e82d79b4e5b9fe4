package localize

// Edge cases the compiled-plan rewrite must preserve, each asserted on
// both engines: an empty failure signature, a risk whose alive dependents
// hit zero mid-run, a signature only the change-log stage can explain,
// and tie-groups larger than one in pickCandidates.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scout/internal/object"
	"scout/internal/risk"
)

// TestEmptyFailureSignature: a healthy model localizes to an empty
// hypothesis with zero iterations on both engines.
func TestEmptyFailureSignature(t *testing.T) {
	m := risk.NewModel("healthy")
	e1 := m.EnsureElement("E1-E2")
	e2 := m.EnsureElement("E2-E3")
	m.AddEdge(e1, object.Filter(1))
	m.AddEdge(e2, object.Filter(1))
	m.AddEdge(e2, object.Contract(1))

	for name, res := range map[string]*Result{
		"Scout":    Scout(m, NoChanges{}),
		"RefScout": RefScout(m, NoChanges{}),
		"Score":    Score(m, 1.0),
		"RefScore": RefScore(m, 1.0),
	} {
		if len(res.Hypothesis) != 0 || res.Iterations != 0 ||
			len(res.Unexplained) != 0 || res.Explained != 0 || len(res.Steps) != 0 {
			t.Errorf("%s on healthy model: non-trivial result %+v", name, res)
		}
	}
	assertEngineIdentity(t, "empty-signature", m, NoChanges{})
}

// TestZeroAliveDepsMidRun: after stage one picks a full fault and prunes
// its dependents, a risk whose every dependent was pruned has zero alive
// deps; it must be skipped (not divide-by-zero'd, not picked) by later
// rounds on both engines.
func TestZeroAliveDepsMidRun(t *testing.T) {
	m := risk.NewModel("zero-alive")
	e1 := m.EnsureElement("E1")
	e2 := m.EnsureElement("E2")
	e3 := m.EnsureElement("E3")
	e4 := m.EnsureElement("E4")
	full := object.Filter(1)  // fully failed, covers e1..e3
	sub := object.Contract(2) // depends only on e1/e2 (subset of full's deps)
	other := object.Filter(3) // fully failed on e4, second round's pick
	for _, el := range []risk.ElementID{e1, e2, e3} {
		m.AddEdge(el, full)
		m.MarkFailed(el, full)
	}
	m.AddEdge(e1, sub)
	m.MarkFailed(e1, sub)
	m.AddEdge(e2, sub)
	m.AddEdge(e4, other)
	m.MarkFailed(e4, other)

	res := Scout(m, NoChanges{})
	// full (cov 3) is picked alone first; pruning e1..e3 leaves sub with
	// zero alive deps, so round two picks other.
	want := []object.Ref{full, other}
	if !reflect.DeepEqual(res.Hypothesis, want) {
		t.Errorf("Hypothesis = %v, want %v", res.Hypothesis, want)
	}
	if res.Iterations != 2 || len(res.Steps) != 2 {
		t.Errorf("Iterations = %d, Steps = %d, want 2 rounds", res.Iterations, len(res.Steps))
	}
	assertEngineIdentity(t, "zero-alive-deps", m, NoChanges{})
}

// TestStageTwoOnly: with only partial faults (hit ratio < 1 everywhere)
// stage one explains nothing — every observation reaches stage two, and
// only change-log hits explain anything.
func TestStageTwoOnly(t *testing.T) {
	m := risk.NewModel("stage-two-only")
	e1 := m.EnsureElement("E1")
	e2 := m.EnsureElement("E2")
	e3 := m.EnsureElement("E3")
	partialA := object.Filter(1)
	partialB := object.Contract(2)
	m.AddEdge(e1, partialA)
	m.AddEdge(e2, partialA) // healthy edge keeps hit ratio at 1/2
	m.AddEdge(e2, partialB)
	m.AddEdge(e3, partialB) // healthy edge keeps hit ratio at 1/2
	m.MarkFailed(e1, partialA)
	m.MarkFailed(e2, partialB)

	// Without an oracle nothing is explained.
	res := Scout(m, NoChanges{})
	if len(res.Hypothesis) != 0 || res.Explained != 0 || len(res.Unexplained) != 2 {
		t.Errorf("no-oracle result: %+v", res)
	}
	if len(res.Steps) != 0 || res.Iterations != 1 {
		t.Errorf("stage one must run one fruitless round: %+v", res)
	}

	// With partialA in the change log, e1 is explained via stage two.
	res = Scout(m, SetOracle(object.NewSet(partialA)))
	if !reflect.DeepEqual(res.Hypothesis, []object.Ref{partialA}) ||
		!reflect.DeepEqual(res.ChangeLogPicks, []object.Ref{partialA}) {
		t.Errorf("oracle result: %+v", res)
	}
	if res.Explained != 1 || len(res.Unexplained) != 1 {
		t.Errorf("Explained = %d, Unexplained = %v", res.Explained, res.Unexplained)
	}
	assertEngineIdentity(t, "stage-two-only", m, SetOracle(object.NewSet(partialA)))
}

// TestPickCandidatesTieGroup: two disjoint full faults with equal
// coverage are picked together in one step, in ref order.
func TestPickCandidatesTieGroup(t *testing.T) {
	m := risk.NewModel("ties")
	a := object.Contract(1)
	b := object.Filter(2)
	for i, ref := range []object.Ref{a, a, b, b} {
		el := m.EnsureElement(labelFor(i))
		m.AddEdge(el, ref)
		m.MarkFailed(el, ref)
	}

	res := Scout(m, NoChanges{})
	if res.Iterations != 1 || len(res.Steps) != 1 {
		t.Fatalf("tie group must resolve in one round: %+v", res)
	}
	want := []object.Ref{a, b}
	object.SortRefs(want)
	if !reflect.DeepEqual(res.Steps[0].Picked, want) {
		t.Errorf("Steps[0].Picked = %v, want %v", res.Steps[0].Picked, want)
	}
	if res.Steps[0].Coverage != 4 || res.Steps[0].Pruned != 4 {
		t.Errorf("Coverage = %d, Pruned = %d, want 4/4",
			res.Steps[0].Coverage, res.Steps[0].Pruned)
	}
	assertEngineIdentity(t, "tie-group", m, NoChanges{})
}

// TestOverlayOnlyFailures: a pristine base with every failure in the
// overlay (the session warm path) — the delta composition alone must
// carry the run.
func TestOverlayOnlyFailures(t *testing.T) {
	m := risk.NewModel("pristine")
	e1 := m.EnsureElement("E1")
	e2 := m.EnsureElement("E2")
	f := object.Filter(1)
	m.AddEdge(e1, f)
	m.AddEdge(e2, f)

	ov := risk.NewOverlay(m)
	ov.MarkFailed(e1, f)
	ov.MarkFailed(e2, f)
	// A mark that creates both a new risk and a new edge in the overlay.
	novel := object.VRF(7)
	ov.MarkFailed(e1, novel)

	assertEngineIdentity(t, "overlay-only", ov, SetOracle(object.NewSet(novel)))
	res := Scout(ov, NoChanges{})
	if !reflect.DeepEqual(res.Hypothesis, []object.Ref{f}) {
		t.Errorf("Hypothesis = %v, want [%v]", res.Hypothesis, f)
	}
	if m.NumFailedEdges() != 0 {
		t.Error("overlay run mutated the pristine base")
	}
}

// TestUnknownViewPanics: the plan engine runs *risk.Model and
// *risk.Overlay only; any other View is a programming error reported by
// type name, not a silent slow path.
func TestUnknownViewPanics(t *testing.T) {
	type wrappedModel struct{ *risk.Model }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "wrappedModel") {
			t.Fatalf("Scout on an unknown View: recovered %v, want a panic naming the type", r)
		}
	}()
	Scout(wrappedModel{risk.NewModel("m")}, NoChanges{})
}
