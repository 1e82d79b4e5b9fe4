// Engine counters. Every Scout call counts its own stage times, and
// ScoutWithStats hands them to its caller.

package localize

import "time"

// EngineStats is one call's counters.
type EngineStats struct {
	// Deprecated: PlanCompiles and PlanReuses are always 0 — the engine
	// reads the risk model's own arrays, and compiles no plan. They stay
	// until bench/ stops reading them (ROADMAP item 1, shims).
	PlanCompiles int64
	PlanReuses   int64
	// Deprecated: LazyEvals is always 0 — Score's pick loop rescans and
	// counts nothing. It stays until bench/ stops reading it (ROADMAP item
	// 1, shims).
	LazyEvals int64
	// Stage1 and Stage2 accumulate wall time in Scout's greedy-prune and
	// change-log stages.
	Stage1 time.Duration
	Stage2 time.Duration
}

// Deprecated: StatsSnapshot returns zero counters — no call adds to a
// process-wide total; ScoutWithStats returns each call's own. It stays
// until bench/ stops reading it (ROADMAP item 1, shims).
func StatsSnapshot() EngineStats { return EngineStats{} }

// Delta returns s - prev, field-wise. It stays until bench/ stops calling
// it (ROADMAP item 1, shims).
func (s EngineStats) Delta(prev EngineStats) EngineStats {
	return EngineStats{Stage1: s.Stage1 - prev.Stage1, Stage2: s.Stage2 - prev.Stage2}
}
