package scout

import (
	"fmt"
	"sync"
	"time"

	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/fabric"
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
// lifetimes. What follows from the compiled deployment alone — its
// fingerprints and the pristine risk model, whose arrays localization reads
// as they are — is resolved once per deployment and reused until the policy
// is recompiled; with a warm store, a new deployment also finds its frozen
// BDD base in the store, or builds and writes it there, and keeps none.
// What follows from an observation — each switch's newest verdict, keyed
// by the fingerprints of the exact logical and TCAM rule lists it was
// computed from — has one rule: it replays when both
// fingerprints match, and leaves the cache only when a fresh verdict for
// its switch replaces it. A T list that is the very
// slice it was hashed from (an unwritten TCAM's snapshot) is not even
// re-hashed. A re-analysis re-checks only the switches whose rules actually
// changed, builds no risk model for a deployment it has seen, and still
// produces a report byte-identical to a cold full Analyze at any worker
// count (the fold stages are unchanged and order-deterministic, and failure
// marks only ever go into per-run overlays).
//
// Use a Session when the same fabric is analyzed repeatedly (watch loops,
// collectors feeding epochs); use Analyzer for one-off analyses. Rule
// state handed to a Session (deployments, epoch TCAM snapshots) must not
// be mutated afterwards — the session compares against it by fingerprint,
// and takes one T slice seen twice for unchanged content.
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
	// list, so the same fingerprint pair keys a valid replay.
	cache map[object.ID]*switchCheckState

	stats SessionStats
}

// deploymentState is everything a session derives from one compiled
// deployment and nothing it derives from an observation.
type deploymentState struct {
	// d is the deployment itself. Compiled deployments are immutable, so
	// the same pointer on the next run means every field below holds.
	d *compile.Deployment

	// fp is the deployment fingerprint — the key of the warm store's files
	// — and logFPs the per-switch logical fingerprints it was folded from,
	// the L half of every cached verdict's key. Both survive a
	// content-identical recompile at a new address.
	fp     uint64
	logFPs map[object.ID]uint64

	// ctrl is the deployment's one pristine risk model, the controller's;
	// each switch's model is a range of it. It is keyed on d's identity,
	// not its content: an equal-content recompile rebuilds it rather than
	// pin the superseded deployment's footprint, which it shares.
	ctrl *risk.Model
}

// switchCheckState is one switch's cached verdict: the report and the
// fingerprints of the exact rule lists it was computed from.
type switchCheckState struct {
	logicalFP uint64
	tcamFP    uint64
	// tcam is the T list tcamFP was last hashed from in this process — a
	// slice header onto the TCAM's or epoch's shared read-only snapshot,
	// never a copy — and the only witness that a run's list is unchanged:
	// handed this very slice again, a run takes tcamFP without hashing. An
	// entry seeded from the warm store has none and is always hashed against.
	tcam   []rule.Rule
	report *equiv.Report
}

// SessionStats counts a session's cache behaviour across runs, the
// observability hook for incremental re-verification (and the assertion
// surface for its tests).
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
// session's previous run. A TCAM hands back the same snapshot until it is
// written, so only the written switches' lists are hashed to find them. It
// is also the event-driven refresh: a watch loop calls it once the events
// it drained have waited out its window, so events decide when a refresh
// runs, and the snapshots which switches it re-checks — a write no event
// names included.
func (s *Session) Analyze() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run(s.fabricState(s.f.CollectAll(), s.f.Now()))
}

// AnalyzeEpoch analyzes one collector epoch against the fabric's current
// deployment, anchored at the epoch's collection time — the delta
// re-verification path for periodic collection. An epoch shares the slice
// of every switch not written since the previous collection, so clean
// switches skip fingerprinting entirely; a re-copied list is hashed, and
// re-checked only if its content moved.
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
// users populating State themselves); a T list is hashed unless it is the
// very slice the switch's cached verdict was computed from. The deployment
// and TCAM slices must not be mutated after the call.
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

// Stats returns the session's cumulative cache statistics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// run is the pipeline's one orchestration, reached by every entry point
// and by every one-shot: resolve the deployment, hash the T lists the cache
// does not recognise, replay or re-check each switch, assemble the report
// on the deployment's pristine risk model, and persist what changed. st
// holds the T lists to analyze. Every run ends byte-identical to a cold run
// on the same State: caching only ever short-circuits the check stage,
// never the folds.
func (s *Session) run(st State) (*Report, error) {
	start := time.Now()
	if st.Deployment == nil {
		return nil, fmt.Errorf("scout: nothing to analyze: the fabric has never been deployed, or the state has no deployment")
	}
	st = st.withDefaultLogs()
	switches := st.sortedSwitches()
	if err := s.resolveLocked(st.Deployment); err != nil {
		return nil, fmt.Errorf("scout: the state's deployment: %w", err)
	}

	// A T list's fingerprint comes from the switch's cache entry when it is
	// the very slice the entry's fingerprint was hashed from (snapshots are
	// read-only, so one slice seen twice is unchanged content) and is
	// otherwise hashed, over the workers like the checks. An empty list
	// has no address to recognise and a store-seeded entry no list: both are
	// hashed, so no fingerprint is trusted for a list this process never read.
	tcamFPs := make([]uint64, len(switches))
	var unhashed []int
	for i, sw := range switches {
		if ent := s.cache[sw]; ent != nil && len(ent.tcam) > 0 && rule.SameSlice(ent.tcam, st.TCAM[sw]) {
			tcamFPs[i] = ent.tcamFP
		} else {
			unhashed = append(unhashed, i)
		}
	}
	if len(unhashed) > 0 { // a clean epoch's replay allocates nothing here
		s.a.fanOut(len(unhashed), func(k int) error {
			i := unhashed[k]
			tcamFPs[i] = equiv.Fingerprint(st.TCAM[switches[i]])
			return nil
		})
	}

	// A dirty switch's check decides its two lists by first match, class
	// by class, and keeps nothing.
	checkReps, checked, err := s.replayOrCheckLocked(st.TCAM, switches, tcamFPs,
		func(dirty []object.ID) ([]*equiv.Report, error) {
			reps := make([]*equiv.Report, len(dirty))
			if err := s.a.fanOut(len(dirty), func(i int) (err error) {
				sw := dirty[i]
				if reps[i], err = equiv.Check(st.Deployment.RulesFor(sw), st.TCAM[sw]); err != nil {
					return fmt.Errorf("scout: equivalence check switch %d: %w", sw, err)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			return reps, nil
		})
	if err != nil {
		return nil, err
	}

	rep := s.a.assemble(s.dep.d, s.dep.ctrl, st.Changes, st.Faults, st.Now, switches, checkReps)
	s.stats.Runs++
	s.stats.Checked += checked
	s.stats.Replayed += len(switches) - checked
	// A run that re-checked something changed some verdict: persist the
	// cache under the deployment fingerprint.
	if s.ws != nil && checked > 0 {
		s.saveVerdictsLocked()
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// replayOrCheckLocked is the session's one partition. A switch whose
// logical and T-side fingerprints both match its cached verdict replays it,
// and the entry remembers this run's T list as the one its fingerprint
// describes; every other switch is dirty and is handed to check, in
// ascending order, and its fresh verdict replaces its entry. It returns the
// reports aligned with switches and how many of them check produced.
func (s *Session) replayOrCheckLocked(tcams map[object.ID][]rule.Rule, switches []object.ID, tcamFPs []uint64,
	check func(dirty []object.ID) ([]*equiv.Report, error)) ([]*equiv.Report, int, error) {
	reports := make([]*equiv.Report, len(switches))
	var (
		dirty    []object.ID
		dirtyLog []uint64
		dirtyIdx []int
	)
	for i, sw := range switches {
		logFP, ok := s.dep.logFPs[sw]
		if !ok { // a collected switch the deployment does not name
			logFP = equiv.Fingerprint(s.dep.d.RulesFor(sw))
		}
		if ent := s.cache[sw]; ent != nil && ent.logicalFP == logFP && ent.tcamFP == tcamFPs[i] {
			ent.tcam = tcams[sw]
			reports[i] = ent.report
			continue
		}
		dirty = append(dirty, sw)
		dirtyLog = append(dirtyLog, logFP)
		dirtyIdx = append(dirtyIdx, i)
	}
	if len(dirty) == 0 {
		return reports, 0, nil
	}
	fresh, err := check(dirty)
	if err != nil {
		return nil, 0, err
	}
	for j, sw := range dirty {
		i := dirtyIdx[j]
		reports[i] = fresh[j]
		s.cache[sw] = &switchCheckState{logicalFP: dirtyLog[j], tcamFP: tcamFPs[i], tcam: tcams[sw], report: fresh[j]}
	}
	return reports, len(dirty), nil
}

// resolveLocked brings s.dep in step with the run's deployment. It is the
// one place the session asks whether this is still the deployment it
// knows. The same pointer means nothing moved. A new pointer's footprint
// is validated first, once — a pointer seen before was validated then —
// and its controller risk model (paper Figure 4(b)) is built: every switch
// is modelled as a shared risk, so whole-switch failures are localizable,
// and a switch's model (4(a)) is the range of its triplets. The model is a
// function of the compiled policy alone, so it is never marked: every
// analysis annotates fresh overlays over it. Then the deployment is hashed
// once: equal content (a recompile that changed nothing) keeps the
// fingerprints and the verdicts keyed by them. New content replaces them
// and, with a warm store, loads or builds the base and seeds the verdict
// cache. A footprint that fails validation, or that the model build
// refuses, is an error returned before anything changes, so the session
// keeps the deployment it knew, with its verdicts and counters.
func (s *Session) resolveLocked(d *compile.Deployment) error {
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
	logFPs, fp := equiv.DeploymentFingerprints(d.BySwitch)
	if s.ws != nil && (s.dep.d == nil || fp != s.dep.fp) {
		s.loadOrBuildBaseLocked(d, fp)
		s.seedVerdictsLocked(fp)
	}
	s.dep = deploymentState{d: d, fp: fp, logFPs: logFPs, ctrl: ctrl}
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
func (s *Session) loadOrBuildBaseLocked(d *compile.Deployment, fp uint64) {
	if b, err := s.ws.LoadBase(fp); err == nil && b != nil && len(b.Roots()) == len(d.BySwitch) {
		s.stats.BaseLoads++
		return
	}
	s.stats.BaseRebuilds++
	if err := s.ws.SaveBase(fp, equiv.NewBaseWith(baseLists(d)...)); err != nil && s.saveErr == nil {
		s.saveErr = err
	}
}

// seedVerdictsLocked restores the verdicts persisted under the deployment
// fingerprint into the cache. It runs on resolveLocked's new-content path
// only, with a warm store. Only absent slots are filled: an
// in-memory entry is at least as fresh as the file it was persisted to. A
// replay still happens only when the logical and TCAM rule lists hash to the
// loaded entry's fingerprints, making a stale or foreign file safe (its
// entries simply never match).
func (s *Session) seedVerdictsLocked(depFP uint64) {
	vs, err := s.ws.LoadVerdicts(depFP, false)
	if err != nil {
		return // unverifiable file: cold start for these switches
	}
	for _, v := range vs {
		if _, ok := s.cache[v.Switch]; ok {
			continue
		}
		s.cache[v.Switch] = &switchCheckState{
			logicalFP: v.LogicalFP,
			tcamFP:    v.TCAMFP,
			report:    v.Report,
		}
	}
}

// saveVerdictsLocked persists the verdict cache under the resolved
// deployment's fingerprint.
func (s *Session) saveVerdictsLocked() {
	vs := make([]store.Verdict, 0, len(s.cache))
	for sw, ent := range s.cache {
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
