// Package scout is the public API of the SCOUT reproduction: an
// end-to-end network-policy fault-localization system after
// "Fault Localization in Large-Scale Network Policy Deployment"
// (Tammana et al., ICDCS 2018).
//
// The pipeline (paper Figure 6):
//
//  1. Collect TCAM rules (T) from every switch and compile logical rules
//     (L) from the controller's network policy.
//  2. Run the ROBDD-based L-T equivalence checker per switch; differences
//     yield missing rules.
//  3. Build switch and controller risk models and augment them with the
//     missing rules.
//  4. Run the SCOUT greedy localization algorithm to produce a hypothesis:
//     a minimal set of most-likely faulty policy objects.
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/probe"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
)

// AnalyzerOptions tunes the end-to-end analysis.
type AnalyzerOptions struct {
	// IncludeSwitchRisk models each switch as a shared risk in the
	// controller risk model so whole-switch failures are localizable.
	// Default true.
	IncludeSwitchRisk *bool

	// ChangeWindow bounds how far back a change-log entry counts as
	// "recent" for SCOUT's second stage. Default 24h.
	ChangeWindow time.Duration

	// Signatures overrides the correlation engine's fault signatures;
	// nil selects the defaults.
	Signatures []correlate.Signature

	// UseProbes derives observations from active connectivity probes
	// against the switch dataplane instead of exhaustive TCAM
	// verification (§III-C's "allowed to communicate but fail to do so"
	// observation source). A probe is an allow rule's own header, one per
	// rule, classified a switch at a time in one batch pass; probing
	// samples the header space, so extra behaviour from corrupted rules is
	// not reported in this mode. The option is fixed for a session's life
	// and adds no state to it: a dirty switch is probed (SessionStats.
	// Checked), a clean one replays its cached verdict (Replayed).
	UseProbes bool

	// SessionMissingRuleCap bounds how many rules (missing + extra) a
	// Session caches per switch. A massively inconsistent switch can
	// report rule lists rivaling its whole TCAM; caching those for every
	// such switch made session memory unbounded. Reports over the cap are
	// still returned but not cached — the switch falls back to a re-check
	// on the next run instead of a replay (counted in
	// SessionStats.OverCap) — and nothing else in the session refers to
	// them: the verdict cache is the only per-switch state that holds rule
	// lists (an entry also references, never copies, its one T snapshot),
	// since risk models stay pristine and failure marks die with each
	// run's overlays. 0 selects the default (4096); negative disables the
	// bound. One-shot Analyzers ignore it: their session is dropped after
	// its first run, so nothing it cached is ever replayed.
	SessionMissingRuleCap int

	// Workers bounds the number of concurrent per-switch equivalence
	// checks. L-T checks are independent across switches (§III-C checks
	// each switch on its own), so the check stage fans out over a pool of
	// Workers goroutines, each owning its own equiv.Checker (a fork of the
	// deployment's shared frozen base); results are folded back serially
	// in ascending switch-ID order, so reports are byte-for-byte identical
	// for any worker count. 0 (the default) selects runtime.NumCPU(); 1
	// restores the fully serial pipeline.
	Workers int

	// SessionNodeBudget bounds each session worker checker's private BDD
	// delta (in nodes). A checker over budget is first compacted (delta
	// GC around its live memo roots, keeping warm state) and Reset only
	// if compaction alone cannot get it under. 0 selects the default
	// (4 << 20); negative disables the bound. One-shot Analyzers ignore
	// it: the budget is applied to a checker before a run reuses it, and
	// a one-shot's checkers are forked for their only run.
	SessionNodeBudget int

	// WarmStore, when set, gives Sessions durable warm state: on the
	// first run of a deployment the session loads a fingerprint-matching
	// frozen base and verdict cache from the store (a fresh process
	// replays a clean fabric with zero compiles), and after every run it
	// persists deltas through the store's write-behind queue (flushed by
	// Session.Close). Probe sessions persist verdicts only — they build
	// no base. One-shot Analyzers ignore it: only NewSession hands the
	// store to the session it creates.
	WarmStore *store.Store
}

// Analyzer runs the SCOUT pipeline once per call. It holds its options and
// nothing else: every Analyze or AnalyzeState is the first run of a Session
// that is dropped when the call returns, so one-shot and incremental
// analyses are the same code and an Analyzer is safe for concurrent use.
type Analyzer struct {
	opts   AnalyzerOptions
	engine *correlate.Engine
}

// NewAnalyzer creates an analyzer. The zero AnalyzerOptions give the
// paper's configuration.
func NewAnalyzer(opts ...AnalyzerOptions) *Analyzer {
	var o AnalyzerOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.ChangeWindow <= 0 {
		o.ChangeWindow = 24 * time.Hour
	}
	return &Analyzer{opts: o, engine: correlate.NewEngine(o.Signatures)}
}

// SwitchReport is the per-switch analysis outcome.
type SwitchReport struct {
	Switch object.ID
	// Equivalent is true when the switch's TCAM matches the policy.
	Equivalent bool
	// MissingRules should have been deployed on this switch but are not.
	MissingRules []rule.Rule
	// ExtraRules are deployed but allow traffic the policy does not.
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
	// one-shot and session runs alike. It is a live structure (not a
	// serializable result), so it is excluded from the JSON form; its
	// String() reports overlay-aware element/edge/failure counts.
	ControllerView risk.View `json:"-"`
	// EncodeStats summarizes the check stage's BDD encoding work: the
	// shared frozen base's size, every worker checker's private delta,
	// and where match encodings were resolved from. Nil for probe runs,
	// which build no BDD checkers. Like ControllerView it is diagnostics,
	// not result: it is excluded from the JSON form so reports stay
	// byte-identical across worker counts.
	EncodeStats *equiv.EncodeStats `json:"-"`
	// LocalizeStats is the localization engine's counter delta for this
	// run: plan compiles vs cache reuses, lazy-greedy coverage
	// re-evaluations vs the full rescans they replaced, and per-stage
	// timings. Nil when the run localized nothing (consistent fabric).
	// Diagnostics like EncodeStats, so excluded from the JSON form.
	LocalizeStats *localize.EngineStats `json:"-"`
	// Hypothesis is the controller-model hypothesis: the minimal set of
	// most-likely faulty policy objects (may include switch objects).
	Hypothesis []object.Ref
	// RootCauses is the event-correlation outcome for the hypothesis.
	RootCauses *correlate.Report
	// Elapsed is the total analysis wall-clock time.
	Elapsed time.Duration
}

// State is the raw input of an analysis: the compiled desired state, the
// collected TCAM snapshots, and the two log streams. Production users
// populate it from their own controller and devices; Analyze populates
// it from the simulated fabric.
type State struct {
	// Deployment is the compiled desired state (L-type rules).
	Deployment *Deployment
	// TCAM maps each switch to its collected rules (T-type). Collected
	// from a Fabric or an Epoch, the slices are the TCAMs' shared
	// read-only snapshots — the same slice again until the switch is
	// written — so an analysis reads them and must not modify them.
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
// the simulator. Collected state has no dataplane to probe, so a UseProbes
// analyzer refuses it rather than run a check the caller did not ask for.
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

// sortedSwitches returns the collected switch IDs in ascending order, the
// canonical fan-out and fold order.
func (st State) sortedSwitches() []object.ID {
	switches := make([]object.ID, 0, len(st.TCAM))
	for sw := range st.TCAM {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	return switches
}

// checkState computes one switch's equivalence report from collected
// state on the calling worker's checker.
func checkState(st State, c *equiv.Checker, sw object.ID) (*equiv.Report, error) {
	checkRep, err := c.Check(st.Deployment.RulesFor(sw), st.TCAM[sw])
	if err != nil {
		return nil, fmt.Errorf("scout: equivalence check switch %d: %w", sw, err)
	}
	return checkRep, nil
}

// checkFunc computes one switch's equivalence report. The checker argument
// is private to the calling worker (nil in probe runs, which never touch
// it); implementations must otherwise only read shared state, since
// checkAll invokes them concurrently.
type checkFunc func(c *equiv.Checker, sw object.ID) (*equiv.Report, error)

// noChecker is the worker-checker source of probe runs.
func noChecker(int) *equiv.Checker { return nil }

// baseSemanticsTopK bounds how many whole-switch semantics roots the
// warmup freezes into the shared base. Lists are ranked most-duplicated
// first, so the cap sheds only the rarest fingerprints on fabrics with
// more distinct rule lists than this; those compile in worker deltas.
const baseSemanticsTopK = 1024

// buildSharedBase is the check stage's warmup pass: it fingerprints every
// switch's rule list over the worker pool, compiles the top-K most
// duplicated whole-switch rule lists (ranked by canonical semantics
// fingerprint, most shared first) into frozen semantics roots, and
// freezes the result into an immutable base every worker's checker forks.
//
// The base covers logical rule lists only: a consistent switch's TCAM
// side shares its logical list's semantics fingerprint, so its whole-list
// root resolves from the base. A drifted switch's TCAM list compiles in
// the owning worker's copy-on-write delta, but against the base's unique
// table: every subtree it shares with its logical list is found frozen,
// so the delta receives only the paths the drift changed. Keying the base
// off the deployment alone is what lets a Session reuse it across runs
// whose TCAM state drifts.
//
// The semantics roots build serially inside NewBaseWith (one manager, not
// shareable mid-build). Each list compiles straight to its ROBDD — only
// result nodes are interned — and they are all the base holds. The lists
// share most of their proto/port tails and many of their tries, which the
// build's memo emits once (equiv's compile.go); the fingerprints ranked
// here are handed on so NewBaseWith does not hash the lists again.
func (a *Analyzer) buildSharedBase(d *Deployment) *equiv.Base {
	switches := make([]object.ID, 0, len(d.BySwitch))
	for sw := range d.BySwitch {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	semFPs := make([]uint64, len(switches))
	a.forEach(len(switches), func(i int) {
		semFPs[i] = equiv.SemanticsFingerprint(d.BySwitch[switches[i]])
	})

	// Rank the distinct rule lists most-duplicated first (fingerprint
	// tiebreak, representative = lowest switch ID), so the build order —
	// and with it every frozen node ID — is deterministic for a given
	// deployment.
	type semGroup struct {
		fp    uint64
		count int
		rep   int
	}
	byFP := make(map[uint64]int, len(switches))
	groups := make([]semGroup, 0, len(switches))
	for i, fp := range semFPs {
		if g, ok := byFP[fp]; ok {
			groups[g].count++
			continue
		}
		byFP[fp] = len(groups)
		groups = append(groups, semGroup{fp: fp, count: 1, rep: i})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].count != groups[j].count {
			return groups[i].count > groups[j].count
		}
		return groups[i].fp < groups[j].fp
	})
	if len(groups) > baseSemanticsTopK {
		groups = groups[:baseSemanticsTopK]
	}
	lists := make([][]rule.Rule, len(groups))
	fps := make([]uint64, len(groups))
	for i, g := range groups {
		lists[i] = d.BySwitch[switches[g.rep]]
		fps[i] = g.fp
	}
	return equiv.NewBaseWith(fps, lists...)
}

// workers resolves the worker count for a check stage over n switches.
func (a *Analyzer) workers(n int) int {
	w := a.opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// checkAll runs the pure check stage of the pipeline: it fans check out
// over the switches with the configured worker pool and returns the
// reports aligned with the input slice. checker(k) returns worker k's
// private checker: a Checker is not safe for concurrent use, but reusing
// one per worker amortizes BDD construction across that worker's switches
// (a session passes its pool of base forks — just forked in a one-shot's
// session, kept by a long-lived one so memoized encodings survive across
// runs; probe runs pass noChecker). Which worker checks which switch is
// scheduling-dependent, which is safe because checker state never
// influences check results, only their cost. With one worker — or one
// switch — it degenerates to the serial loop the pipeline always ran. The
// caller folds the aligned results serially, so report order never
// depends on scheduling. On error the pool drains early and the
// lowest-index recorded error is returned; when several switches fail
// concurrently, which one is reported may vary (successful analyses are
// deterministic, failures are exceptional).
func (a *Analyzer) checkAll(switches []object.ID, checker func(worker int) *equiv.Checker, check checkFunc) ([]*equiv.Report, error) {
	reports := make([]*equiv.Report, len(switches))
	w := a.workers(len(switches))
	if w <= 1 {
		c := checker(0)
		for i, sw := range switches {
			rep, err := check(c, sw)
			if err != nil {
				return nil, err
			}
			reports[i] = rep
		}
		return reports, nil
	}

	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	errs := make([]error, len(switches))
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := checker(k)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(switches) || failed.Load() {
					return
				}
				rep, err := check(c, switches[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				reports[i] = rep
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// forEach runs fn(i) for every i in [0, n) over the configured worker
// pool. It is the fan-out primitive for pipeline stages whose per-switch
// work is independent and infallible (the fold's risk-model builds);
// callers write results into index-addressed slices so output order never
// depends on scheduling.
func (a *Analyzer) forEach(n int, fn func(i int)) {
	w := a.workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// riskModels are one deployment's pristine risk models: the controller
// model, and each switch's model built the first time that switch fails.
// A risk model is a function of the compiled policy alone (paper Figure
// 4) — only its fail marks come from the L-T check — so the models are
// never marked: every analysis annotates the controller and each
// inequivalent switch through a fresh risk.Overlay, and the localization
// plan compiled from a pristine model serves every later analysis of the
// deployment. A session keeps them for as long as it is handed the same
// *Deployment — one run, for a one-shot's.
type riskModels struct {
	d    *Deployment
	ctrl *risk.Model
	sw   sync.Map // object.ID → *risk.Model; assemble's fan-out fills it
}

// switchModel returns sw's pristine risk model, building it on first use.
func (m *riskModels) switchModel(sw object.ID) *risk.Model {
	if sm, ok := m.sw.Load(sw); ok {
		return sm.(*risk.Model)
	}
	sm, _ := m.sw.LoadOrStore(sw, risk.BuildSwitchModel(m.d, sw))
	return sm.(*risk.Model)
}

// startRiskModels begins the deployment's controller-model build (per the
// analyzer's options) on its own goroutine and returns the function that
// waits for it; the caller calls it once, on every path.
func (a *Analyzer) startRiskModels(d *Deployment) (join func() *riskModels) {
	includeSwitch := true
	if a.opts.IncludeSwitchRisk != nil {
		includeSwitch = *a.opts.IncludeSwitchRisk
	}
	built := make(chan *risk.Model, 1)
	go func() {
		built <- risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: includeSwitch})
	}()
	return func() *riskModels { return &riskModels{d: d, ctrl: <-built} }
}

// oracle builds the change-log oracle anchored at now.
func (a *Analyzer) oracle(changes *ChangeLog, now time.Time) localize.ChangeLogOracle {
	return localize.ChangeLogOracle{Log: changes, Since: now.Add(-a.opts.ChangeWindow)}
}

// assemble runs the pipeline stages downstream of the check stage. The
// per-switch residue — overlay annotation plus localization for every
// inequivalent switch, and the controller-model augmentation patch — fans
// out over the worker pool (patches only read the pristine controller
// model); then the serial fold walks the switches in ascending ID order
// to count missing rules and replay the patches, and the global
// localization/correlation pass finishes the report. The only serial
// stages left are order-dependent by construction: the O(failures) patch
// replay and the single controller localize.Scout, which runs on the
// compiled-plan engine (cached CSR/bitset plan plus O(marks) overlay
// delta), so its cost is the greedy rounds themselves, not model-sized
// setup. switches must be sorted ascending and aligned with checkReps.
// models are the deployment's pristine risk models and stay pristine:
// this run's failure marks live in overlays that die with its report.
func (a *Analyzer) assemble(models *riskModels, changes *ChangeLog, faults *FaultLog,
	now time.Time, switches []object.ID, checkReps []*equiv.Report) *Report {
	oracle := a.oracle(changes, now)
	lstatsBefore := localize.StatsSnapshot()
	prov := models.d.Provenance
	ctrl := risk.NewOverlay(models.ctrl)

	srs := make([]SwitchReport, len(switches))
	patches := make([]*risk.Patch, len(switches))
	a.forEach(len(switches), func(i int) {
		srs[i] = buildSwitchReport(models, oracle, switches[i], checkReps[i])
		if !srs[i].Equivalent {
			patches[i] = risk.AugmentControllerModelPatch(models.ctrl, switches[i], srs[i].MissingRules, prov)
		}
	})

	rep := &Report{Consistent: true, Switches: srs, ControllerView: ctrl}
	for i := range srs {
		if srs[i].Equivalent {
			continue
		}
		rep.Consistent = false
		rep.TotalMissing += len(srs[i].MissingRules)
		patches[i].Apply(ctrl)
	}
	if !rep.Consistent {
		rep.Controller = localize.Scout(ctrl, oracle)
		rep.Hypothesis = rep.Controller.Hypothesis
		rep.RootCauses = a.engine.Correlate(rep.Hypothesis, changes, faults)
		delta := localize.StatsSnapshot().Delta(lstatsBefore)
		rep.LocalizeStats = &delta
	}
	return rep
}

// buildSwitchReport assembles one switch's report from its check result.
// An inequivalent switch is localized on a fresh overlay over its pristine
// risk model, marked with the report's missing rules. It only reads shared
// state, so reports for distinct switches build concurrently.
func buildSwitchReport(models *riskModels, oracle localize.ChangeOracle, sw object.ID, checkRep *equiv.Report) SwitchReport {
	sr := SwitchReport{
		Switch:       sw,
		Equivalent:   checkRep.Equivalent,
		MissingRules: checkRep.MissingRules,
		ExtraRules:   checkRep.ExtraRules,
	}
	if !checkRep.Equivalent {
		view := risk.NewOverlay(models.switchModel(sw))
		risk.AugmentSwitchModel(view, checkRep.MissingRules, models.d.Provenance)
		sr.Result = localize.Scout(view, oracle)
	}
	return sr
}

// probeSwitch is the probe observation source's verdict for one switch:
// the headers of its logical rules are classified against its live TCAM in
// one batch pass, and every allowed packet the dataplane drops names a
// missing rule. It also returns how many probes were sent. It keeps and
// shares nothing, so the fan-out calls it concurrently.
func probeSwitch(f *fabric.Fabric, logical []rule.Rule, sw object.ID) (*equiv.Report, int, error) {
	s, err := f.Switch(sw)
	if err != nil {
		return nil, 0, fmt.Errorf("scout: probe switch %d: %w", sw, err)
	}
	violations, sent := probe.Switch(sw, logical, s.TCAM())
	return &equiv.Report{
		Equivalent:   len(violations) == 0,
		MissingRules: probe.MissingRules(violations),
	}, sent, nil
}

// AnalyzeSwitch runs the pipeline for a single switch — the event-driven
// collection mode of §III-C (e.g. triggered by a device fault event) —
// using the configured observation source: one probe batch against its
// live dataplane, or a BDD check of its collected TCAM on a checker of its
// own. The risk model is the switch risk model, so the hypothesis is scoped
// to that switch's policy objects.
func (a *Analyzer) AnalyzeSwitch(f *fabric.Fabric, sw object.ID) (*SwitchReport, error) {
	d := f.Deployment()
	if d == nil {
		return nil, fmt.Errorf("scout: fabric has never been deployed")
	}
	var checkRep *equiv.Report
	var err error
	if a.opts.UseProbes {
		checkRep, _, err = probeSwitch(f, d.RulesFor(sw), sw)
	} else if deployed, cerr := f.CollectTCAM(sw); cerr != nil {
		err = fmt.Errorf("scout: collect switch %d: %w", sw, cerr)
	} else {
		st := State{Deployment: d, TCAM: map[object.ID][]rule.Rule{sw: deployed}}
		checkRep, err = checkState(st, equiv.NewChecker(), sw)
	}
	if err != nil {
		return nil, err
	}
	sr := buildSwitchReport(&riskModels{d: d}, a.oracle(f.ChangeLog(), f.Now()), sw, checkRep)
	return &sr, nil
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
