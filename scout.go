// Package scout is the public API of the SCOUT reproduction: an
// end-to-end network-policy fault-localization system after
// "Fault Localization in Large-Scale Network Policy Deployment"
// (Tammana et al., ICDCS 2018).
//
// The pipeline (paper Figure 6):
//
//  1. Collect TCAM rules (T) from every switch and compile logical rules
//     (L) from the controller's network policy.
//  2. Run the L-T equivalence check per switch, by first match, class by
//     class, for any list a State holds; differences yield missing rules.
//  3. Build the controller risk model and mark each missing rule once:
//     every inconsistent switch's range of it (its switch model) and the
//     whole model read the same marks.
//  4. Run the SCOUT greedy localization algorithm to produce a hypothesis:
//     a small set of most-likely faulty policy objects, picked greedily
//     (not a minimum).
//  5. Correlate the hypothesis with controller change logs and device
//     fault logs to infer physical-level root causes.
//
// Typical use:
//
//	f, _ := scout.NewFabric(pol, topology, scout.FabricOptions{})
//	f.Deploy()
//	// ... faults happen ...
//	report, _ := scout.NewAnalyzer().Analyze(f)
//	fmt.Println(report.Summary())
package scout

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/fanout"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
)

// AnalyzerOptions tunes the end-to-end analysis. A caller picks how many
// workers check switches and whether a session's state survives a
// restart; the rest of the pipeline is the paper's configuration, fixed
// below.
type AnalyzerOptions struct {
	// Workers bounds the number of concurrent per-switch equivalence
	// checks. L-T checks are independent across switches (§III-C checks
	// each switch on its own), so the check stage fans out over Workers
	// goroutines, which share nothing: a check keeps nothing past its
	// switch. Each worker claims the next switch and results fold back in
	// ascending switch-ID order, so reports — and a session's counters —
	// are identical at any worker count. A count ≤ 0 (0 is the default)
	// selects runtime.GOMAXPROCS(0); 1 restores the fully serial pipeline.
	Workers int

	// WarmStore, when set, gives Sessions durable warm state: on the
	// first run of a deployment the session loads a fingerprint-matching
	// frozen base — its node table and one root per logical list, bound
	// to the deployment's lists by position — building and saving it when
	// none loads, and adopts each verdict of the deployment's file that the
	// run's own lists match (a fresh process replays a clean fabric with
	// no check); every run that re-checked a switch writes its verdicts to
	// the store before returning (Session.Close reports the session's first
	// failed write). No session keeps a base, and only a session with a
	// store builds one. One-shot Analyzers ignore it: only NewSession hands
	// the store to the session it creates.
	WarmStore *store.Store
}

// changeWindow bounds how far back a change-log entry counts as "recent"
// for SCOUT's second stage, measured back from State.Now.
const changeWindow = 24 * time.Hour

// Analyzer runs the SCOUT pipeline once per call. It holds its options and
// nothing else: every Analyze or AnalyzeState is the first run of a Session
// that is dropped when the call returns, so one-shot and incremental
// analyses are the same code and an Analyzer is safe for concurrent use.
type Analyzer struct {
	opts AnalyzerOptions
}

// NewAnalyzer creates an analyzer. The zero AnalyzerOptions give the
// paper's configuration.
func NewAnalyzer(opts ...AnalyzerOptions) *Analyzer {
	a := &Analyzer{}
	if len(opts) > 0 {
		a.opts = opts[0]
	}
	return a
}

// SwitchReport is the per-switch analysis outcome.
type SwitchReport struct {
	Switch object.ID
	// Equivalent is true when the switch's TCAM matches the policy.
	Equivalent bool
	// MissingRules should have been deployed on this switch but are not.
	MissingRules []rule.Rule
	// ExtraRules are deployed but allow traffic the policy does not, in
	// rule.Compare order, so a TCAM's install order does not move them.
	ExtraRules []rule.Rule
	// Result is the SCOUT run on this switch's risk model (nil when the
	// switch is consistent).
	Result *localize.Result
}

// Report is the end-to-end analysis output.
type Report struct {
	// Consistent is true when every switch's TCAM matches the policy.
	Consistent bool
	// TotalMissing counts missing rules across switches.
	TotalMissing int
	// Switches holds per-switch reports (only inconsistent switches have
	// localization results), sorted by switch ID.
	Switches []SwitchReport
	// Controller is the SCOUT result on the controller risk model.
	Controller *localize.Result
	// ControllerView is the annotated controller risk view the global
	// localization ran on: a copy-on-write overlay holding this run's
	// failure marks over the deployment's pristine controller model, in
	// one-shot and session runs alike. Its readers are cmd/scout -v, which
	// prints its overlay-aware String(), and Figure 10 (internal/eval),
	// which scores SCORE-1 on it. It is a live
	// structure (not a serializable result), so it is excluded from the
	// JSON form.
	ControllerView *risk.Overlay `json:"-"`
	// Deprecated: EncodeStats is always nil — no check keeps a checker
	// whose encoding work could be summed. It stays until bench/ stops
	// reading it (ROADMAP item 1, shims).
	EncodeStats *equiv.EncodeStats `json:"-"`
	// Trace is the run's own account of its work, left out of the JSON.
	Trace Trace `json:"-"`
	// Hypothesis is the controller-model hypothesis: the most-likely
	// faulty policy objects (may include switch objects), picked greedily
	// by SCOUT — a small explaining set, not a minimum one.
	Hypothesis []object.Ref
	// RootCauses is the event-correlation outcome for the hypothesis.
	RootCauses *correlate.Report
	// Elapsed is the total analysis wall-clock time.
	Elapsed time.Duration
}

// Trace is what one run did, filled by the run itself: the switches it
// checked or replayed and the warm-store bases it built or loaded, which a
// session's SessionStats sum; each stage's wall time in pipeline order —
// Collect (Session.Analyze's read of the fabric), Model (the risk model
// and a warm store's base), Witness (the replay/check partition), Check,
// Localize (marks and localizations), Correlate and Store (the verdict
// save); and SCOUT's two stages on the controller model (0 if consistent).
type Trace struct {
	Checked, Replayed, BaseRebuilds, BaseLoads                 int
	Collect, Model, Witness, Check, Localize, Correlate, Store time.Duration
	Stage1, Stage2                                             time.Duration
}

// State is the raw input of an analysis: the compiled desired state, the
// collected TCAM snapshots, and the two log streams. Production users
// populate it from their own controller and devices; Analyze populates
// it from the simulated fabric.
type State struct {
	// Deployment is the compiled desired state (L-type rules). One built
	// by hand fills BySwitch, Provenance and a Footprint whose triplets
	// strictly ascend, with Risks and Keys aligned to them, each risk list
	// naming a ref once and no switch; an analysis refuses any other
	// footprint with an error.
	Deployment *Deployment
	// TCAM maps each switch to its collected rules (T-type). Collected
	// from a Fabric or an Epoch, the slices are the TCAMs' own read-only
	// lists — the same slice until a write copies the switch's table — so
	// an analysis reads them and must not modify them.
	TCAM map[object.ID][]rule.Rule
	// Changes is the controller change log (may be nil).
	Changes *ChangeLog
	// Faults is the device fault log (may be nil).
	Faults *FaultLog
	// Now anchors the change-window computation.
	Now time.Time
}

// Analyze runs the full pipeline against the fabric's current state.
func (a *Analyzer) Analyze(f *fabric.Fabric) (*Report, error) {
	return a.session(f).Analyze()
}

// AnalyzeState runs the pipeline on raw collected state, independent of
// the simulator.
func (a *Analyzer) AnalyzeState(st State) (*Report, error) {
	return a.session(nil).AnalyzeState(st)
}

// withDefaultLogs returns a copy of the state with nil logs replaced by
// empty ones, so the pipeline never branches on their presence.
func (st State) withDefaultLogs() State {
	if st.Changes == nil {
		st.Changes = &ChangeLog{}
	}
	if st.Faults == nil {
		st.Faults = &FaultLog{}
	}
	return st
}

// sortedSwitches returns m's switch IDs in ascending order, the canonical
// fan-out, fold and base order.
func sortedSwitches[V any](m map[object.ID]V) []object.ID {
	switches := make([]object.ID, 0, len(m))
	for sw := range m {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	return switches
}

// baseLists returns the deployment's logical rule lists in ascending
// switch order: the order a warm store's base is built and written in
// (loadOrBuildBaseLocked).
func baseLists(d *Deployment) [][]rule.Rule {
	switches := sortedSwitches(d.BySwitch)
	lists := make([][]rule.Rule, len(switches))
	for i, sw := range switches {
		lists[i] = d.BySwitch[sw]
	}
	return lists
}

// changeOracle builds the change-log oracle anchored at now.
func changeOracle(changes *ChangeLog, now time.Time) localize.ChangeLogOracle {
	return localize.ChangeLogOracle{Log: changes, Since: now.Add(-changeWindow)}
}

// assemble runs the pipeline stages downstream of the check stage, marking
// each missing rule once (§III-C). The fan-out turns every inequivalent
// switch's missing rules into one sorted run of marks against the pristine
// model ctrl and localizes the switch on its view of them; the serial pass
// counts missing rules and joins the runs, in ascending switch order, into
// the controller overlay, whose localize.Scout reads ctrl's own arrays
// plus the overlay's O(marks) delta. switches must be sorted ascending and
// aligned with checkReps. ctrl stays pristine: this run's marks live in
// overlays that die with its report. Its stages are laps from mark into tr.
func (a *Analyzer) assemble(d *Deployment, ctrl *risk.Model, changes *ChangeLog, faults *FaultLog,
	now time.Time, switches []object.ID, checkReps []*equiv.Report, tr *Trace, mark *time.Time) *Report {
	oracle := changeOracle(changes, now)

	srs := make([]SwitchReport, len(switches))
	runs := make([]*risk.SwitchMarks, len(switches))
	fanout.Run(len(switches), a.opts.Workers, func(i int) error {
		srs[i], runs[i] = buildSwitchReport(ctrl, d.Provenance, oracle, switches[i], checkReps[i])
		return nil
	})

	rep := &Report{Consistent: true, Switches: srs}
	marked := runs[:0]
	for i := range srs {
		if srs[i].Equivalent {
			continue
		}
		rep.Consistent = false
		rep.TotalMissing += len(srs[i].MissingRules)
		marked = append(marked, runs[i])
	}
	rep.ControllerView = risk.NewOverlay(ctrl, marked...)
	if !rep.Consistent {
		var st localize.EngineStats
		rep.Controller, st = localize.ScoutWithStats(rep.ControllerView, oracle)
		rep.Hypothesis, tr.Stage1, tr.Stage2 = rep.Controller.Hypothesis, st.Stage1, st.Stage2
		tr.Localize = lap(mark)
		rep.RootCauses = correlate.Correlate(rep.Hypothesis, changes, faults)
		tr.Correlate = lap(mark)
	} else {
		tr.Localize = lap(mark)
	}
	return rep
}

// buildSwitchReport assembles one switch's report from its check result.
// An inequivalent switch's missing rules are marked against the pristine
// controller model ctrl, and it is localized on its view of the marks, its
// switch risk model. It only reads shared state, so reports for distinct
// switches build concurrently. It also returns the marks (nil for a
// consistent switch).
func buildSwitchReport(ctrl *risk.Model, prov map[rule.Key][]object.Ref, oracle localize.ChangeOracle, sw object.ID,
	checkRep *equiv.Report) (sr SwitchReport, marks *risk.SwitchMarks) {
	sr = SwitchReport{
		Switch:       sw,
		Equivalent:   checkRep.Equivalent,
		MissingRules: checkRep.MissingRules,
		ExtraRules:   checkRep.ExtraRules,
	}
	if !checkRep.Equivalent {
		marks = risk.MarkSwitch(ctrl, sw, checkRep.MissingRules, prov)
		sr.Result = localize.Scout(marks.View(), oracle)
	}
	return sr, marks
}

// MarshalJSON serializes the report (for dashboards and tooling).
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report
	return json.Marshal(struct {
		*alias
		ElapsedMillis int64 `json:"elapsedMillis"`
	}{
		alias:         (*alias)(r),
		ElapsedMillis: r.Elapsed.Milliseconds(),
	})
}

// Summary renders a human-readable digest of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Consistent {
		b.WriteString("network state consistent: every switch TCAM matches the policy\n")
		return b.String()
	}
	fmt.Fprintf(&b, "network state INCONSISTENT: %d missing rules across %d switches\n",
		r.TotalMissing, len(r.inconsistentSwitches()))
	fmt.Fprintf(&b, "hypothesis (%d faulty objects):\n", len(r.Hypothesis))
	for _, ref := range r.Hypothesis {
		fmt.Fprintf(&b, "  - %s\n", ref)
	}
	if r.RootCauses != nil && len(r.RootCauses.RootCauses) > 0 {
		b.WriteString("most likely root causes:\n")
		for _, rc := range r.RootCauses.RootCauses {
			fmt.Fprintf(&b, "  - %s (explains %d objects)\n", rc.Description, len(rc.Objects))
		}
	} else {
		b.WriteString("no physical root cause matched (silent fault, e.g. TCAM corruption)\n")
	}
	return b.String()
}

func (r *Report) inconsistentSwitches() []object.ID {
	var out []object.ID
	for _, sr := range r.Switches {
		if !sr.Equivalent {
			out = append(out, sr.Switch)
		}
	}
	return out
}
