package localize

import (
	"math/rand"
	"testing"

	"scout/internal/object"
	"scout/internal/risk"
)

// benchModel builds a dense annotated model: elems elements, risks
// shared risks, ~deg edges per element, a handful of full faults.
func benchModel(b *testing.B, elems, risks, deg, faults int) *risk.Model {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := risk.NewModel("bench")
	ids := make([]risk.ElementID, elems)
	for i := range ids {
		ids[i] = m.EnsureElement(labelFor(i))
	}
	for _, el := range ids {
		for d := 0; d < deg; d++ {
			m.AddEdge(el, object.Filter(object.ID(rng.Intn(risks))))
		}
	}
	for f := 0; f < faults; f++ {
		ref := object.Filter(object.ID(rng.Intn(risks)))
		for _, el := range m.ElementsOf(ref) {
			m.MarkFailed(el, ref)
		}
	}
	return m
}

// benchOverlay builds a pristine model plus an overlay carrying the same
// fault pattern — the indirection the analyzer's warm path actually pays.
func benchOverlay(b *testing.B, elems, risks, deg, faults int) *risk.Overlay {
	b.Helper()
	base := benchModel(b, elems, risks, deg, 0)
	rng := rand.New(rand.NewSource(43))
	ov := risk.NewOverlay(base)
	for f := 0; f < faults; f++ {
		ref := object.Filter(object.ID(rng.Intn(risks)))
		for _, el := range base.ElementsOf(ref) {
			ov.MarkFailed(el, ref)
		}
	}
	return ov
}

// reportEngineMetrics attaches plan-compiles/op to a benchmark from the
// engine counter delta across the timed loop.
func reportEngineMetrics(b *testing.B, before EngineStats) {
	d := StatsSnapshot().Delta(before)
	b.ReportMetric(float64(d.PlanCompiles)/float64(b.N), "plan-compiles/op")
}

// BenchmarkScoutLarge measures SCOUT on a 50k-element model — roughly a
// 150-switch controller risk model. The plan compiles on the first
// iteration and is reused by the rest, so plan-compiles/op tends to 0.
func BenchmarkScoutLarge(b *testing.B) {
	m := benchModel(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	before := StatsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Scout(m, NoChanges{})
		if len(res.Hypothesis) == 0 {
			b.Fatal("no hypothesis")
		}
	}
	reportEngineMetrics(b, before)
}

// BenchmarkRefScoutLarge is the retained map-based engine on the same
// model — the baseline the compiled-plan speedup is measured against.
func BenchmarkRefScoutLarge(b *testing.B) {
	m := benchModel(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RefScout(m, NoChanges{})
		if len(res.Hypothesis) == 0 {
			b.Fatal("no hypothesis")
		}
	}
}

// BenchmarkScoutLargeOverlay measures SCOUT through a failure overlay
// over a pristine 50k-element base: the plan comes from the base's cache
// and each iteration composes only the O(marks) delta.
func BenchmarkScoutLargeOverlay(b *testing.B) {
	ov := benchOverlay(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	before := StatsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Scout(ov, NoChanges{})
		if len(res.Hypothesis) == 0 {
			b.Fatal("no hypothesis")
		}
	}
	reportEngineMetrics(b, before)
}

// BenchmarkScoreLarge measures the SCORE baseline on the same model.
func BenchmarkScoreLarge(b *testing.B) {
	m := benchModel(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	before := StatsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(m, 1.0)
	}
	reportEngineMetrics(b, before)
}

// BenchmarkRefScoreLarge is the map-based SCORE baseline.
func BenchmarkRefScoreLarge(b *testing.B) {
	m := benchModel(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RefScore(m, 1.0)
	}
}

// BenchmarkScoreLargeOverlay measures SCORE through a failure overlay.
func BenchmarkScoreLargeOverlay(b *testing.B) {
	ov := benchOverlay(b, 50000, 2000, 6, 10)
	b.ReportAllocs()
	before := StatsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(ov, 1.0)
	}
	reportEngineMetrics(b, before)
}

// BenchmarkScoutSmall measures per-switch-model latency (hundreds of
// elements), the size an inequivalent switch's own report localizes.
func BenchmarkScoutSmall(b *testing.B) {
	m := benchModel(b, 400, 80, 5, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scout(m, NoChanges{})
	}
}
