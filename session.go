package scout

import (
	"fmt"
	"sync"
	"time"

	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/fanout"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
)

// Session is a persistent analysis engine over one fabric — the
// continuous-verification mode of §III-C, where TCAM state is collected
// periodically and re-checked after every change — and the one place the
// pipeline is orchestrated: every entry point says where its T lists came
// from and hands them to run, and a one-shot Analyzer call is the first run
// of a Session nobody keeps. A Session keeps state between runs, in two
// lifetimes. What follows from the compiled deployment alone — the pristine
// risk model, whose arrays localization reads as they are — is resolved
// once per deployment and reused until the policy is recompiled; with a
// warm store, a new deployment is also hashed into the fingerprint that
// names its files, finds its frozen BDD base there, or builds and writes
// it, and keeps none. What follows from an observation — each switch's
// newest verdict — is witnessed by the exact logical and TCAM rule lists it
// was computed from, and has one rule: it replays when both lists equal the
// run's, and leaves the cache only when a fresh verdict for its switch
// replaces it. One slice seen twice (an unwritten TCAM's snapshot, an
// unchanged deployment's list) is equal without reading a rule. A verdict
// in the warm store's file enters the cache only through the run that
// loads it, holding that run's lists, and only if they hash to the
// fingerprints the file keys it by; the rest are dropped. A
// re-analysis re-checks only the switches whose rules actually changed,
// builds no risk model for a deployment it has seen, and still produces a
// report byte-identical to a cold full Analyze at any worker count (the
// fold stages are unchanged and order-deterministic, and failure marks only
// ever go into per-run overlays).
//
// Use a Session when the same fabric is analyzed repeatedly (watch loops,
// collectors feeding epochs); use Analyzer for one-off analyses. Rule
// state handed to a Session (deployments, epoch TCAM snapshots) must not
// be mutated afterwards — the session keeps the lists its verdicts were
// computed from and compares the next run's against them, taking one slice
// seen twice for unchanged content.
//
// A Session serializes its runs internally and is safe for concurrent
// use, though runs themselves parallelize per the configured Workers.
type Session struct {
	mu sync.Mutex
	a  *Analyzer
	// f is the fabric Analyze collects from; nil in the session behind
	// Analyzer.AnalyzeState, which is handed its state.
	f *fabric.Fabric

	// ws is the durable warm store (AnalyzerOptions.WarmStore). Only
	// NewSession sets it: a one-shot's session loads and persists nothing.
	// saveErr is the first of this session's saves to ws that failed, for
	// Close: a store shared by several sessions reports no other's.
	ws      *store.Store
	saveErr error

	// dep is what the session knows about the deployment of its latest
	// run; resolveLocked brings it in step once per run, and nothing else
	// in the session compares deployments.
	dep deploymentState

	// cache holds the newest verdict per switch: a check of its collected
	// TCAM rules, a pure function of the switch's logical rules and TCAM
	// list, so equal lists witness a valid replay.
	cache map[object.ID]*switchCheckState

	stats SessionStats
}

// deploymentState is everything a session derives from one compiled
// deployment and nothing it derives from an observation.
type deploymentState struct {
	// d is the deployment itself. Compiled deployments are immutable, so
	// the same pointer on the next run means every field below holds.
	d *compile.Deployment

	// fp is the deployment fingerprint, the key of the warm store's files,
	// and logFPs the per-switch L fingerprints, which key the verdicts; only
	// a session with a store hashes them. fp survives a content-identical
	// recompile at a new address.
	fp     uint64
	logFPs map[object.ID]uint64

	// ctrl is the deployment's one pristine risk model, the controller's;
	// each switch's model is a range of it. It is keyed on d's identity,
	// not its content: an equal-content recompile rebuilds it rather than
	// pin the superseded deployment's footprint, which it shares.
	ctrl *risk.Model
}

// switchCheckState is one switch's cached verdict: the report and the
// exact rule lists it was computed from.
type switchCheckState struct {
	// logical and tcam are the L and T lists the report describes: the
	// ones it was checked on or adopted for, or the equal ones a run
	// replayed it for last.
	// They are slice headers onto the deployment's and the TCAM's or
	// epoch's read-only lists, never copies.
	logical, tcam []rule.Rule
	// logicalFP and tcamFP are the lists' fingerprints, the entry's key in
	// the verdict file. 0 is not hashed yet: a save hashes it then, and a
	// list that truly hashes to 0 is merely hashed again.
	logicalFP, tcamFP uint64
	report            *equiv.Report
}

// SessionStats is the sum of a session's run traces (Report.Trace): its
// cache behaviour across runs. A run reports its own work in its trace;
// the sum stays until bench/ stops reading it (ROADMAP item 38).
type SessionStats struct {
	// Runs counts completed analyses.
	Runs int
	// Checked counts switches whose verdict was recomputed (cache misses:
	// changed rules, or first sight), each by its own equivalence check.
	Checked int
	// Replayed counts switches whose cached verdict was replayed without
	// recomputing it.
	Replayed int
	// Deprecated: CheckerCompactions and CheckerResets are always 0 — no
	// checker outlives its check. They stay until bench/ stops reading them
	// (ROADMAP item 1, shims).
	CheckerCompactions int
	CheckerResets      int
	// BaseRebuilds counts shared-base builds for the warm store (the first
	// build included): one per distinct deployment fingerprint a session
	// with a store has analyzed and could not load a base for. A session
	// with no store builds none.
	BaseRebuilds int
	// BaseLoads counts shared bases restored from the warm store instead
	// of built: a warm restart of a clean fabric shows BaseLoads 1,
	// BaseRebuilds 0, and nothing checked.
	BaseLoads int
	// Deprecated: DeltaNodes is always 0 — no checker outlives its check.
	// It stays until bench/ stops reading it (ROADMAP item 1, shims).
	DeltaNodes int
}

// add folds one run's trace into the totals. Runs counts reports, so a
// failed run adds only the base work it did before it failed.
func (st *SessionStats) add(tr Trace) {
	st.Checked += tr.Checked
	st.Replayed += tr.Replayed
	st.BaseRebuilds += tr.BaseRebuilds
	st.BaseLoads += tr.BaseLoads
}

// NewSession creates a persistent analysis session over the fabric. The
// options are the Analyzer's; nothing is built until the first run
// resolves the fabric's deployment.
func NewSession(f *fabric.Fabric, opts ...AnalyzerOptions) (*Session, error) {
	s := NewAnalyzer(opts...).session(f)
	s.ws = s.a.opts.WarmStore
	return s, nil
}

// session returns a cold session over the fabric with no warm store: kept,
// it is NewSession's; run once and dropped, it is a one-shot analysis.
func (a *Analyzer) session(f *fabric.Fabric) *Session {
	return &Session{a: a, f: f, cache: make(map[object.ID]*switchCheckState)}
}

// fabricState is the State around T lists that came from the session's own
// fabric: its current deployment and logs, anchored at now.
func (s *Session) fabricState(tcams map[object.ID][]rule.Rule, now time.Time) State {
	return State{
		Deployment: s.f.Deployment(),
		TCAM:       tcams,
		Changes:    s.f.ChangeLog(),
		Faults:     s.f.FaultLog(),
		Now:        now,
	}
}

// Analyze collects the fabric's current state and analyzes it,
// re-checking only switches whose logical or TCAM rules changed since the
// session's previous run. A TCAM hands back its own list until it is
// written, so an unwritten switch's list is its verdict's own slice, and
// only a written one is compared rule by rule. It is also the event-driven
// refresh: a watch loop calls it once the events it drained have waited out
// its window, so events decide when a refresh runs, and the snapshots which
// switches it re-checks — a write no event names included.
func (s *Session) Analyze() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	rep, err := s.run(s.fabricState(s.f.CollectAll(), s.f.Now()))
	if err == nil {
		rep.Trace.Collect = time.Since(start) - rep.Elapsed
	}
	return rep, err
}

// AnalyzeEpoch analyzes one collector epoch against the fabric's current
// deployment, anchored at the epoch's collection time — the delta
// re-verification path for periodic collection. An epoch shares the slice
// of every switch not written since the previous collection, so a clean
// switch replays on a pointer compare; a re-copied list is compared rule
// by rule, and re-checked only if its content moved.
func (s *Session) AnalyzeEpoch(e *Epoch) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run(s.fabricState(e.TCAM, e.Time))
}

// ApplyEvents is Analyze; the batch is ignored.
//
// Deprecated: call Analyze once per batch. It stays until bench/ stops
// calling it (ROADMAP item 1, shims).
func (s *Session) ApplyEvents(EventBatch) (*Report, error) { return s.Analyze() }

// AnalyzeState analyzes raw collected state incrementally (production
// users populating State themselves): a switch replays its cached verdict
// when its L and T lists equal the ones the verdict was computed from, as
// the same slices or as copies of equal content. The deployment and TCAM
// slices must not be mutated after the call.
func (s *Session) AnalyzeState(st State) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run(st)
}

// Close reports the first of the session's warm-state saves that failed,
// or nil. Every save is written before its run returns, so there is
// nothing left to write; a save that failed cost the next process a cold
// start, never a report.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveErr
}

// Stats returns the sum of the session's run traces. It stays until bench/
// reads each report's Trace instead (ROADMAP item 38).
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// run is the pipeline's one orchestration, reached by every entry point
// and by every one-shot: resolve the deployment, replay or re-check each
// switch, assemble the report on the deployment's pristine risk model, and
// persist what changed. st holds the T lists to analyze. Every run ends
// byte-identical to a cold run on the same State: caching only ever
// short-circuits the check stage, never the folds. Its Trace, one stage a
// lap, is folded into the session's totals.
func (s *Session) run(st State) (*Report, error) {
	start := time.Now()
	if st.Deployment == nil {
		return nil, fmt.Errorf("scout: nothing to analyze: the fabric has never been deployed, or the state has no deployment")
	}
	st = st.withDefaultLogs()
	switches := sortedSwitches(st.TCAM)
	var tr Trace
	mark := start
	if err := s.resolveLocked(st.Deployment, st.TCAM, &tr); err != nil {
		return nil, fmt.Errorf("scout: the state's deployment: %w", err)
	}
	tr.Model = lap(&mark)

	// The session's one partition. A switch replays its cached verdict
	// when the entry's L and T lists equal the run's: one slice seen twice
	// is equal at once, and a churned list usually differs in length. A
	// replaying entry takes the run's lists, so it pins no superseded
	// deployment or snapshot. Every other switch is dirty: its fresh entry
	// keeps the L fingerprint a warm store's deployment has, and its check
	// decides its two lists by first match, class by class, and keeps
	// nothing.
	reports := make([]*equiv.Report, len(switches))
	var (
		dirty []int
		fresh []*switchCheckState
	)
	for i, sw := range switches {
		l, tl, ent := st.Deployment.RulesFor(sw), st.TCAM[sw], s.cache[sw]
		if ent != nil && rule.SlicesEqual(ent.logical, l) && rule.SlicesEqual(ent.tcam, tl) {
			ent.logical, ent.tcam = l, tl
			reports[i] = ent.report
			continue
		}
		dirty = append(dirty, i)
		fresh = append(fresh, &switchCheckState{logical: l, tcam: tl, logicalFP: s.dep.logFPs[sw]})
	}
	tr.Witness = lap(&mark)
	if err := fanout.Run(len(fresh), s.a.opts.Workers, func(j int) (err error) {
		ent := fresh[j]
		if ent.report, err = equiv.Check(ent.logical, ent.tcam); err != nil {
			return fmt.Errorf("scout: equivalence check switch %d: %w", switches[dirty[j]], err)
		}
		return nil
	}); err != nil {
		s.stats.add(tr)
		return nil, err
	}
	for j, i := range dirty {
		reports[i], s.cache[switches[i]] = fresh[j].report, fresh[j]
	}
	tr.Checked, tr.Replayed = len(dirty), len(switches)-len(dirty)
	tr.Check = lap(&mark)

	rep := s.a.assemble(s.dep.d, s.dep.ctrl, st.Changes, st.Faults, st.Now, switches, reports, &tr, &mark)
	// A run that re-checked something changed some verdict: persist the
	// cache under the deployment fingerprint.
	if s.ws != nil && len(dirty) > 0 {
		s.saveVerdictsLocked()
		tr.Store = lap(&mark)
	}
	s.stats.Runs++
	s.stats.add(tr)
	rep.Trace, rep.Elapsed = tr, time.Since(start)
	return rep, nil
}

// lap returns the time since *mark and moves the mark to now.
func lap(mark *time.Time) (d time.Duration) {
	d, *mark = time.Since(*mark), time.Now()
	return d
}

// resolveLocked brings s.dep in step with the run's deployment d; tcams
// are the run's T lists. It is the one place the session asks whether this
// is still the deployment it knows. The same pointer means nothing moved.
// A new pointer's footprint is validated first, once — a pointer seen
// before was validated then — and its controller risk model (paper Figure
// 4(b)) is built: every switch is modelled as a shared risk, so
// whole-switch failures are localizable, and a switch's model (4(a)) is
// the range of its triplets. The model is a function of the footprint
// alone, so it is never marked: every analysis annotates fresh overlays
// over it. With a warm store, the deployment is then hashed into the
// fingerprints that name its files and key their verdicts: equal content
// (a recompile that changed nothing) keeps them, and new content loads or
// builds its base and adopts its verdicts. A session with no store hashes
// nothing. A footprint that fails validation, or that the model build
// refuses, is an error returned before anything changes, so the session
// keeps the deployment it knew, with its verdicts and counters.
func (s *Session) resolveLocked(d *compile.Deployment, tcams map[object.ID][]rule.Rule, tr *Trace) error {
	if d == s.dep.d {
		return nil
	}
	if err := d.Footprint.Validate(); err != nil {
		return err
	}
	ctrl, err := risk.BuildControllerModel(d)
	if err != nil {
		return err
	}
	dep := deploymentState{d: d, ctrl: ctrl}
	if s.ws != nil {
		dep.logFPs, dep.fp = equiv.DeploymentFingerprints(d.BySwitch)
		if s.dep.d == nil || dep.fp != s.dep.fp {
			s.loadOrBuildBaseLocked(d, dep.fp, tr)
			s.adoptVerdictsLocked(dep, tcams)
		}
	}
	s.dep = dep
	return nil
}

// loadOrBuildBaseLocked makes sure the warm store holds the frozen base of
// deployment d, whose fingerprint is fp: the node table and one root per
// logical list in ascending switch order (baseLists), and nothing else. A
// base that loads with as many roots as d has lists counts as a load, its
// fingerprint trusted as a loaded verdict's is. A missing or unverifiable
// file, or one with another root count, is a cold start (one written by an
// older codec included): the build compiles every logical list once,
// serially, into one manager, freezes it and overwrites the file. Either
// way the session keeps nothing: no check reads a base.
func (s *Session) loadOrBuildBaseLocked(d *compile.Deployment, fp uint64, tr *Trace) {
	if b, err := s.ws.LoadBase(fp); err == nil && b != nil && len(b.Roots()) == len(d.BySwitch) {
		tr.BaseLoads++
		return
	}
	tr.BaseRebuilds++
	if err := s.ws.SaveBase(fp, equiv.NewBaseWith(baseLists(d)...)); err != nil && s.saveErr == nil {
		s.saveErr = err
	}
}

// adoptVerdictsLocked fills the cache's empty slots from the verdict file
// of new deployment content dep, for the run whose T lists are tcams (an
// entry in memory is at least as fresh as the file it was saved to). A
// verdict is adopted, as an ordinary entry holding the run's lists, only
// when they hash to the fingerprints the file keys it by; the rest are
// dropped, so a stale or foreign file costs checks, never a wrong replay.
func (s *Session) adoptVerdictsLocked(dep deploymentState, tcams map[object.ID][]rule.Rule) {
	vs, err := s.ws.LoadVerdicts(dep.fp, false)
	if err != nil {
		return // unverifiable file: cold start for these switches
	}
	for _, v := range vs {
		if _, ok := s.cache[v.Switch]; ok {
			continue
		}
		l, tl := dep.d.RulesFor(v.Switch), tcams[v.Switch]
		lfp, ok := dep.logFPs[v.Switch]
		if !ok { // a switch the deployment does not name
			lfp = equiv.Fingerprint(l)
		}
		if lfp == v.LogicalFP && equiv.Fingerprint(tl) == v.TCAMFP {
			s.cache[v.Switch] = &switchCheckState{logical: l, tcam: tl, logicalFP: v.LogicalFP, tcamFP: v.TCAMFP, report: v.Report}
		}
	}
}

// saveVerdictsLocked persists the verdict cache under the resolved
// deployment's fingerprint. Only lists whose fingerprint no earlier run or
// save has made are hashed, once, and the entry keeps it.
func (s *Session) saveVerdictsLocked() {
	vs := make([]store.Verdict, 0, len(s.cache))
	for sw, ent := range s.cache {
		if ent.logicalFP == 0 {
			ent.logicalFP = equiv.Fingerprint(ent.logical)
		}
		if ent.tcamFP == 0 {
			ent.tcamFP = equiv.Fingerprint(ent.tcam)
		}
		vs = append(vs, store.Verdict{
			Switch:    sw,
			LogicalFP: ent.logicalFP,
			TCAMFP:    ent.tcamFP,
			Report:    ent.report,
		})
	}
	if err := s.ws.SaveVerdicts(s.dep.fp, false, vs); err != nil && s.saveErr == nil {
		s.saveErr = err
	}
}
