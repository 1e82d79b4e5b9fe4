// Process-wide engine counters. The compiled-plan engine is invoked from
// concurrent per-switch workers, so the counters are atomics; callers
// that want per-run numbers (the analyzer, sessions, benchmarks) snapshot
// before and after and diff. Under the normal serialized run loop the
// delta attributes cleanly to the run; overlapping analyses in one
// process share the totals, which is fine for diagnostics.

package localize

import (
	"sync/atomic"
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
	// LazyEvals counts coverage re-evaluations performed by the
	// lazy-greedy heap in Score; FullScanEvals is the number
	// of coverage evaluations a per-round full rescan (the reference
	// engine's strategy) would have performed for the same picks.
	LazyEvals     int64
	FullScanEvals int64
	// LazyPicks counts greedy picks served from the heap.
	LazyPicks int64
	// Stage1 and Stage2 accumulate wall time in Scout's greedy-prune and
	// change-log stages; Greedy accumulates Score's pick-loop time.
	Stage1 time.Duration
	Stage2 time.Duration
	Greedy time.Duration
}

var engineCounters struct {
	planCompiles, planReuses         atomic.Int64
	lazyEvals, fullScanEvals         atomic.Int64
	lazyPicks                        atomic.Int64
	stage1Nanos, stage2Nanos, greedy atomic.Int64
}

// StatsSnapshot returns the engine's cumulative counters.
func StatsSnapshot() EngineStats {
	return EngineStats{
		PlanCompiles:  engineCounters.planCompiles.Load(),
		PlanReuses:    engineCounters.planReuses.Load(),
		LazyEvals:     engineCounters.lazyEvals.Load(),
		FullScanEvals: engineCounters.fullScanEvals.Load(),
		LazyPicks:     engineCounters.lazyPicks.Load(),
		Stage1:        time.Duration(engineCounters.stage1Nanos.Load()),
		Stage2:        time.Duration(engineCounters.stage2Nanos.Load()),
		Greedy:        time.Duration(engineCounters.greedy.Load()),
	}
}

// Delta returns s - prev, field-wise.
func (s EngineStats) Delta(prev EngineStats) EngineStats {
	return EngineStats{
		PlanCompiles:  s.PlanCompiles - prev.PlanCompiles,
		PlanReuses:    s.PlanReuses - prev.PlanReuses,
		LazyEvals:     s.LazyEvals - prev.LazyEvals,
		FullScanEvals: s.FullScanEvals - prev.FullScanEvals,
		LazyPicks:     s.LazyPicks - prev.LazyPicks,
		Stage1:        s.Stage1 - prev.Stage1,
		Stage2:        s.Stage2 - prev.Stage2,
		Greedy:        s.Greedy - prev.Greedy,
	}
}
