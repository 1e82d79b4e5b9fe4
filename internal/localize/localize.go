// Package localize implements the paper's network-policy fault
// localization algorithms over annotated risk models (§IV):
//
//   - SCOUT (Algorithms 1 and 2): a two-stage greedy solver. Stage one
//     repeatedly picks the shared risks with hit ratio exactly 1 and
//     maximum coverage, pruning every element that depends on a picked
//     risk. Stage two explains the left-over observations — caused by
//     partial object faults whose hit ratio is below 1 — by consulting the
//     controller change log for recently-modified objects.
//   - SCORE (Kompella et al.): the prior greedy min-set-cover baseline
//     that admits every risk above a static hit-ratio threshold and picks
//     by coverage. Partial faults below the threshold are treated as
//     noise, which is the accuracy gap SCOUT closes.
//
// The algorithms run on a compiled localization plan (plan.go): dense CSR
// adjacency compiled once from a model's topology alone and cached on the
// model. Each run composes it with its own delta — the view's failure
// marks, and an overlay's created edges and risks — under packed bit masks
// (engine.go). The original map-of-maps implementation lives in
// ref_test.go as the readable specification the package's differential
// tests compare against.
package localize

import (
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/risk"
)

// ChangeOracle answers whether a policy object has recently had
// configuration actions applied — the change-log lookup of Algorithm 1
// lines 21-24.
type ChangeOracle interface {
	RecentlyChanged(object.Ref) bool
}

// ChangeLogOracle adapts a controller change log: objects changed at or
// after Since count as recent.
type ChangeLogOracle struct {
	Log   *faultlog.ChangeLog
	Since time.Time
}

// RecentlyChanged reports whether ref has a change entry at or after Since.
func (o ChangeLogOracle) RecentlyChanged(ref object.Ref) bool {
	return o.Log.ChangedSince(ref, o.Since)
}

// SetOracle is a fixed set of recently-changed objects (used in
// simulations and tests).
type SetOracle object.Set

// RecentlyChanged reports whether ref is in the set.
func (o SetOracle) RecentlyChanged(ref object.Ref) bool {
	return object.Set(o).Has(ref)
}

// NoChanges is an oracle that never reports changes; using it disables
// SCOUT's second stage (the ablation `cmd/scout-bench -experiment
// ablation` runs, scored in README's claims table).
type NoChanges struct{}

// RecentlyChanged always returns false.
func (NoChanges) RecentlyChanged(object.Ref) bool { return false }

var (
	_ ChangeOracle = ChangeLogOracle{}
	_ ChangeOracle = SetOracle(nil)
	_ ChangeOracle = NoChanges{}
)

// Step records one greedy iteration for explainability: what was picked
// and why.
type Step struct {
	// Picked are the risks selected this iteration (ties picked together).
	Picked []object.Ref
	// Coverage is the number of then-unexplained observations the picked
	// set covered.
	Coverage int
	// Pruned is the number of elements removed from the working model.
	Pruned int
}

// Result is the outcome of a localization run.
type Result struct {
	// Hypothesis is the objects the algorithm picked, sorted; each has at
	// least one failed edge. SCOUT and SCORE both pick greedily, so nothing
	// makes it a smallest set of objects (ROADMAP 14).
	Hypothesis []object.Ref
	// Explained counts observations covered by the hypothesis.
	Explained int
	// Unexplained lists observations no hypothesis object accounts for.
	Unexplained []risk.ElementID
	// Iterations is the number of greedy rounds stage one executed.
	Iterations int
	// ChangeLogPicks lists the hypothesis objects contributed by the
	// change-log stage (SCOUT only; empty for SCORE).
	ChangeLogPicks []object.Ref
	// Steps traces the greedy iterations in order (Scout stage one, or
	// Score's per-pick rounds).
	Steps []Step
}

// Scout runs the SCOUT algorithm (Algorithm 1) on the annotated model.
// oracle supplies the change-log lookup for stage two; pass NoChanges{} to
// disable it. m must be a *risk.Model or a *risk.Overlay.
func Scout(m risk.View, oracle ChangeOracle) *Result {
	res, _ := ScoutWithStats(m, oracle)
	return res
}

// ScoutWithStats is Scout, and also returns the call's own engine counters:
// whether it compiled m's plan or reused it, and its stage times.
func ScoutWithStats(m risk.View, oracle ChangeOracle) (*Result, EngineStats) {
	var st EngineStats
	res := planScout(planFor(m, &st), m, oracle, &st)
	addTotals(st)
	return res, st
}

// Score runs the SCORE baseline with the given hit-ratio threshold
// (SCORE-X in the paper's figures, e.g. 0.6 or 1.0). Hit ratios are
// computed once on the full model; eligible risks are greedily selected by
// residual coverage until no eligible risk explains a new observation.
func Score(m risk.View, threshold float64) *Result {
	var st EngineStats
	p := planFor(m, &st)
	addTotals(st)
	return planScore(p, m, threshold)
}

// Accuracy holds precision/recall of a hypothesis against ground truth.
type Accuracy struct {
	Precision float64
	Recall    float64
	// TruePositives = |G ∩ H|.
	TruePositives int
}

// Evaluate computes precision (|G∩H|/|H|) and recall (|G∩H|/|G|) of the
// result's hypothesis against the ground-truth faulty objects.
func (r *Result) Evaluate(groundTruth []object.Ref) Accuracy {
	g := object.NewSet(groundTruth...)
	tp := 0
	for _, ref := range r.Hypothesis {
		if g.Has(ref) {
			tp++
		}
	}
	acc := Accuracy{TruePositives: tp}
	if len(r.Hypothesis) > 0 {
		acc.Precision = float64(tp) / float64(len(r.Hypothesis))
	}
	if len(groundTruth) > 0 {
		acc.Recall = float64(tp) / float64(len(groundTruth))
	}
	return acc
}
