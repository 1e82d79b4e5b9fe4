// Engine counters. Every Scout or Score call counts its own plan compile or
// reuse and stage times; ScoutWithStats hands them to its caller, so a run
// that sums its own calls counts its own work whatever else runs beside
// it. Each call also adds its counts to process-wide totals, and a delta of
// two snapshots counts every call that fell between them, from any caller.

package localize

import (
	"sync"
	"time"
)

// EngineStats is a snapshot (or delta) of the compiled-plan engine's
// cumulative counters.
type EngineStats struct {
	// PlanCompiles counts CSR plan compilations from a pristine model;
	// PlanReuses counts calls served by a model's cached plan (warm and
	// overlay runs).
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

// totals sums every call's counters, for StatsSnapshot.
var totals struct {
	sync.Mutex
	EngineStats
}

// addTotals adds one call's counters to the process-wide totals.
func addTotals(st EngineStats) {
	totals.Lock()
	defer totals.Unlock()
	totals.EngineStats = totals.Add(st)
}

// StatsSnapshot returns the engine's cumulative counters.
func StatsSnapshot() EngineStats {
	totals.Lock()
	defer totals.Unlock()
	return totals.EngineStats
}

// Add returns s + d, field-wise.
func (s EngineStats) Add(d EngineStats) EngineStats {
	return EngineStats{
		PlanCompiles: s.PlanCompiles + d.PlanCompiles,
		PlanReuses:   s.PlanReuses + d.PlanReuses,
		Stage1:       s.Stage1 + d.Stage1,
		Stage2:       s.Stage2 + d.Stage2,
	}
}

// Delta returns s - prev, field-wise.
func (s EngineStats) Delta(prev EngineStats) EngineStats {
	return EngineStats{
		PlanCompiles: s.PlanCompiles - prev.PlanCompiles,
		PlanReuses:   s.PlanReuses - prev.PlanReuses,
		Stage1:       s.Stage1 - prev.Stage1,
		Stage2:       s.Stage2 - prev.Stage2,
	}
}
