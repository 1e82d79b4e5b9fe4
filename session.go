package scout

import (
	"fmt"
	"sync"
	"time"

	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/probe"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
)

// sessionCheckerNodeBudget bounds how many BDD nodes a session worker
// checker may accumulate before the session intervenes (the default for
// AnalyzerOptions.SessionNodeBudget). Without a budget a session
// watching a churning fabric would grow without bound. The budget
// applies to each checker's private delta only (equiv.Checker.DeltaSize):
// the shared frozen base is deployment-scoped, immutable, and not the
// checker's to shed. An over-budget checker is compacted first — a delta
// GC around its live memo roots that keeps the warm encodings and memo
// state — and Reset (re-fork, delta discarded) only when live state
// alone still exceeds the budget.
const sessionCheckerNodeBudget = 4 << 20

// defaultSessionMissingRuleCap is the per-switch cached-rule bound used
// when AnalyzerOptions.SessionMissingRuleCap is zero.
const defaultSessionMissingRuleCap = 4096

// Session is a persistent analysis engine over one fabric — the
// continuous-verification mode of §III-C, where TCAM state is collected
// periodically and re-checked after every change. Unlike the one-shot
// Analyzer, a Session keeps per-switch check state between runs: the
// fingerprints of each switch's logical and TCAM rules, the cached
// equivalence report, and the worker checkers' memoized BDD encodings.
// A re-analysis therefore re-checks only the switches whose rules
// actually changed and replays cached reports for the rest, while
// producing a report byte-identical to a cold full Analyze at any worker
// count (the fold stages are unchanged and order-deterministic).
//
// Use a Session when the same fabric is analyzed repeatedly (watch loops,
// collectors feeding epochs); use Analyzer for one-off analyses. Rule
// state handed to a Session (deployments, epoch TCAM snapshots) must not
// be mutated afterwards — the session compares against it by fingerprint.
//
// A Session serializes its runs internally and is safe for concurrent
// use, though runs themselves parallelize per the configured Workers.
type Session struct {
	mu sync.Mutex
	a  *Analyzer
	f  *fabric.Fabric

	// base is the shared frozen encoding base every worker checker
	// forks: the frozen whole-switch semantics roots of the deployment's
	// most duplicated rule lists. It persists across runs keyed by the
	// deployment fingerprint (baseFP) — TCAM drift never invalidates it,
	// only a changed deployment (recompile) does — so warm runs reuse it
	// across runs, not just within one. baseDeployment is a
	// pointer-identity fast path past the hashing.
	base           *equiv.Base
	baseFP         uint64
	baseDeployment *compile.Deployment

	// checkers are the persistent per-worker BDD checkers (forks of
	// base); entry k is owned by worker k of the current run only, so
	// memoized semantics roots amortize across every run of the session.
	checkers []*equiv.Checker

	// cache holds the newest check outcome per switch.
	cache map[object.ID]*switchCheckState

	// probeCache holds the newest probe-round outcome per switch
	// (probe-mode sessions only). Entries reuse switchCheckState: the
	// report is a pure function of the switch's logical rules and live
	// TCAM content, so the same fingerprint pair keys a valid replay.
	probeCache map[object.ID]*switchCheckState

	// lastDeployment keys the pristine controller-model cache: compiled
	// deployments are immutable, so pointer identity means the model (and
	// every logical rule set) is unchanged.
	lastDeployment *compile.Deployment
	ctrlPristine   *risk.Model

	// lastEpoch is the epoch of the immediately preceding successful
	// AnalyzeEpoch run, nil after any other (or failed) run. It gates the
	// epoch-diff fast path: a switch unchanged between lastEpoch and the
	// next epoch can skip even fingerprint hashing.
	lastEpoch *collect.Epoch

	// loadedVerdicts records which warm-store verdict files have already
	// seeded this session's caches, so each (deployment fingerprint,
	// mode) pair is read at most once per session — later runs of the
	// same deployment trust the in-memory cache, which is a superset.
	loadedVerdicts map[verdictLoadKey]struct{}

	// probeStoreDep/probeStoreFP cache the deployment fingerprint probe
	// rounds key their warm-store files by (probe mode has no shared base
	// and therefore no baseFP to reuse); pointer identity skips the hash.
	probeStoreDep *compile.Deployment
	probeStoreFP  uint64

	stats SessionStats
}

// verdictLoadKey identifies one warm-store verdict file: the deployment
// fingerprint plus which per-switch cache (check vs probe) it feeds.
type verdictLoadKey struct {
	fp    uint64
	probe bool
}

// switchCheckState is one switch's cached check outcome: the report and
// the fingerprints of the exact rule lists it was computed from.
type switchCheckState struct {
	// dep is the deployment the logical fingerprint was computed under;
	// pointer equality lets an unchanged deployment skip re-hashing.
	dep       *compile.Deployment
	logicalFP uint64
	tcamFP    uint64
	report    *equiv.Report
}

// SessionStats counts a session's cache behaviour across runs, the
// observability hook for incremental re-verification (and the assertion
// surface for its tests).
type SessionStats struct {
	// Runs counts completed analyses.
	Runs int
	// Checked counts switches whose equivalence was re-checked (cache
	// misses: changed rules, invalidations, or first sight). Of these,
	// DedupReplays got their fresh verdict from a group representative's
	// single check rather than a check of their own.
	Checked int
	// Replayed counts switches whose cached report was replayed without
	// re-checking.
	Replayed int
	// CheckerCompactions counts delta GCs on over-budget worker
	// checkers: live memo roots kept (CompactRetained sums the delta
	// nodes they retained), dead intermediates shed (CompactDropped).
	CheckerCompactions int
	CompactRetained    int
	CompactDropped     int
	// CheckerResets counts worker checkers rebuilt because even their
	// compacted (all-live) delta exceeded the node budget.
	CheckerResets int
	// OverCap counts fresh reports too large to cache under
	// SessionMissingRuleCap; their switches re-check on the next run.
	OverCap int
	// BaseRebuilds counts shared-base builds (the first build included):
	// one per distinct deployment fingerprint the session has analyzed.
	// A rebuild refreshes the frozen semantics cache, which lives in the
	// base and shares its lifecycle.
	BaseRebuilds int
	// BaseLoads counts shared bases restored from the warm store instead
	// of built: a warm restart of a clean fabric shows BaseLoads 1,
	// BaseRebuilds 0, and zero fold misses.
	BaseLoads int
	// BaseSemGrafts and BaseSemFolds split each base build's whole-switch
	// semantics work: roots grafted from the shared BaseRegistry (another
	// deployment's base already froze a canonically equal list) versus
	// folded from scratch. Both zero when bases load from the warm store.
	BaseSemGrafts int
	BaseSemFolds  int
	// BaseNodes and DeltaNodes are gauges refreshed after every run: the
	// frozen shared base's node count and the sum of the worker
	// checkers' private deltas. BaseSemantics is the number of
	// whole-switch semantics roots frozen in the current base.
	BaseNodes     int
	DeltaNodes    int
	BaseSemantics int
	// FoldHits and FoldMisses accumulate across runs: whole-list
	// semantics folds resolved from a memo (frozen base root or
	// checker-local) versus folded from scratch into a worker's delta.
	FoldHits   int
	FoldMisses int
	// DedupGroups and DedupReplays accumulate the whole-switch check
	// dedup across runs: groups of dirty switches sharing both rule-list
	// fingerprints, and the member switches whose verdict replayed from
	// their group's single check.
	DedupGroups  int
	DedupReplays int
	// Probe-mode counters (zero in TCAM-observation sessions).
	// ProbeSwitchesReplayed counts switches whose cached probe verdict
	// replayed because their TCAM fingerprint was unchanged — zero
	// Classify calls; ProbeSwitchesClassified counts switches whose
	// probes were actually classified. ProbePacketsBatched accumulates
	// probe packets resolved through rule-major batch passes over
	// switch TCAMs (see probe.Stats.BatchedPackets).
	ProbeSwitchesReplayed   int
	ProbeSwitchesClassified int
	ProbePacketsBatched     int
	// EventBatches counts ApplyEvents runs that refreshed against a
	// prior epoch (partial collections); EventSwitchesRead the switches
	// those runs re-read from the fabric, EventSwitchesAliased the
	// switches carried forward from the previous epoch without a read.
	// Together they pin the streaming path's collection cost: an event
	// batch touches only the switches its events name.
	EventBatches         int
	EventSwitchesRead    int
	EventSwitchesAliased int
	// Localization-engine counters, accumulated from each run's
	// Report.LocalizeStats. PlanCompiles counts CSR/bitset plan builds
	// from a pristine risk model; PlanReuses counts localizations served
	// by a cached plan — a warm session on an unchanged deployment shows
	// zero compiles after its first inconsistent run, because every
	// overlay run composes against the model's cached plan. LazyEvals
	// counts lazy-greedy heap re-evaluations and LazyPicks the greedy
	// picks they produced; their ratio versus FullScanEvals (the
	// coverage evaluations an eager greedy would have done) is the
	// CELF-style work saving.
	PlanCompiles  int
	PlanReuses    int
	LazyEvals     int
	FullScanEvals int
	LazyPicks     int
}

// addLocalizeStats folds one run's localization delta into the session
// counters (no-op for consistent runs, which localize nothing).
func (st *SessionStats) addLocalizeStats(d *localize.EngineStats) {
	if d == nil {
		return
	}
	st.PlanCompiles += int(d.PlanCompiles)
	st.PlanReuses += int(d.PlanReuses)
	st.LazyEvals += int(d.LazyEvals)
	st.FullScanEvals += int(d.FullScanEvals)
	st.LazyPicks += int(d.LazyPicks)
}

// NewSession creates a persistent analysis session over the fabric. The
// options are the Analyzer's. With UseProbes the session runs the probe
// observation source incrementally: each round fingerprints every
// switch's live TCAM, replays the cached probe verdict for switches
// whose fingerprint is unchanged (zero Classify calls), and classifies
// only the dirty ones' probe batches. Probe-mode sessions are driven by
// Analyze only — the epoch/event/raw-state entry points consume
// collected TCAM snapshots, which probe mode by definition does not use.
func NewSession(f *fabric.Fabric, opts ...AnalyzerOptions) (*Session, error) {
	a := NewAnalyzer(opts...)
	// Sessions replay cached check reports across runs, so their analyzer
	// also caches the annotated switch models those reports localize on —
	// a warm run re-localizes every still-broken switch through the
	// model's cached plan, compiling nothing.
	a.swModels = make(map[object.ID]*switchModelEntry)
	return &Session{
		a:              a,
		f:              f,
		cache:          make(map[object.ID]*switchCheckState),
		probeCache:     make(map[object.ID]*switchCheckState),
		loadedVerdicts: make(map[verdictLoadKey]struct{}),
	}, nil
}

// Analyze collects the fabric's current state and analyzes it,
// re-checking only switches whose logical or TCAM rules changed since the
// session's previous run. In probe mode the same replay applies to probe
// classification: clean switches replay their cached verdicts and only
// dirty switches' probe batches touch a dataplane.
func (s *Session) Analyze() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.f.Deployment()
	if d == nil {
		return nil, fmt.Errorf("scout: fabric has never been deployed")
	}
	if s.a.opts.UseProbes {
		return s.analyzeProbesLocked(d)
	}
	return s.analyzeLocked(State{
		Deployment: d,
		TCAM:       s.f.CollectAll(),
		Changes:    s.f.ChangeLog(),
		Faults:     s.f.FaultLog(),
		Now:        s.f.Now(),
	}, nil)
}

// errProbeSession guards the TCAM-snapshot entry points in probe mode.
func (s *Session) errProbeSession(entry string) error {
	return fmt.Errorf("scout: %s consumes collected TCAM snapshots; probe-mode sessions are driven by Analyze", entry)
}

// analyzeProbesLocked is the probe-mode incremental round: fingerprint
// every switch's live TCAM (O(rules) hashing, fanned over the worker
// pool), replay cached verdicts for fingerprint-clean switches, and
// classify only the dirty switches' probe batches (O(rules × probes)
// work that the replay path skips entirely). The report is byte-identical
// to a cold Analyzer probe run at any worker count: replayed reports are
// pure functions of the switch's logical rules and TCAM content, and the
// fold stages are unchanged.
func (s *Session) analyzeProbesLocked(d *compile.Deployment) (*Report, error) {
	start := time.Now()
	ctrlModel := s.startControllerModelLocked(d)()
	s.ensureProbeStoreLocked(d)
	prober := s.a.proberFor(d)
	before := prober.Stats()
	switches := sortSwitches(s.f.Topology().Switches())

	// Fingerprint pass: hash every switch's live TCAM rules in parallel.
	tcamFPs := make([]uint64, len(switches))
	collectErrs := make([]error, len(switches))
	s.a.forEach(len(switches), func(i int) {
		rules, err := s.f.CollectTCAM(switches[i])
		if err != nil {
			collectErrs[i] = fmt.Errorf("scout: probe fingerprint switch %d: %w", switches[i], err)
			return
		}
		tcamFPs[i] = equiv.Fingerprint(rules)
	})
	for _, err := range collectErrs {
		if err != nil {
			return nil, err
		}
	}

	// Partition into replays and probe rounds, mirroring the equivalence
	// path's fingerprint partition.
	checkReps := make([]*equiv.Report, len(switches))
	logFPs := make([]uint64, len(switches))
	var dirty []object.ID
	var dirtyIdx []int
	for i, sw := range switches {
		ent := s.probeCache[sw]
		if ent != nil && ent.dep == d {
			logFPs[i] = ent.logicalFP
		} else {
			logFPs[i] = equiv.Fingerprint(d.RulesFor(sw))
		}
		if ent == nil || logFPs[i] != ent.logicalFP || tcamFPs[i] != ent.tcamFP {
			dirty = append(dirty, sw)
			dirtyIdx = append(dirtyIdx, i)
			continue
		}
		ent.dep = d // refresh identity for the next run's shortcut
		checkReps[i] = ent.report
	}

	if len(dirty) > 0 {
		fresh, err := s.a.checkAll(dirty, noChecker, func(_ *equiv.Checker, sw object.ID) (*equiv.Report, error) {
			return s.a.checkSwitch(s.f, d, prober, sw)
		})
		if err != nil {
			return nil, err
		}
		capRules := s.missingRuleCap()
		for j, i := range dirtyIdx {
			checkReps[i] = fresh[j]
			if capRules > 0 && len(fresh[j].MissingRules) > capRules {
				delete(s.probeCache, switches[i])
				s.stats.OverCap++
				continue
			}
			s.probeCache[switches[i]] = &switchCheckState{
				dep:       d,
				logicalFP: logFPs[i],
				tcamFP:    tcamFPs[i],
				report:    fresh[j],
			}
		}
	}

	rep := s.a.assemble(ctrlModel, d, s.f.ChangeLog(), s.f.FaultLog(), s.f.Now(), switches, checkReps)
	rep.Elapsed = time.Since(start)
	after := prober.Stats()
	s.stats.Runs++
	s.stats.addLocalizeStats(rep.LocalizeStats)
	s.stats.ProbeSwitchesClassified += len(dirty)
	s.stats.ProbeSwitchesReplayed += len(switches) - len(dirty)
	s.stats.ProbePacketsBatched += after.BatchedPackets - before.BatchedPackets
	if s.a.opts.WarmStore != nil && len(dirty) > 0 {
		s.saveVerdictsLocked(s.probeStoreFP, true)
	}
	return rep, nil
}

// ensureProbeStoreLocked keeps the probe rounds' warm-store key — the
// deployment fingerprint — in step with the deployment (pointer identity
// skips the hash) and seeds the probe cache from persisted verdicts the
// first time each fingerprint is seen. Probe mode has no shared base, so
// durable state is verdicts only; a restarted probe session replays a
// fingerprint-clean fabric with zero Classify calls.
func (s *Session) ensureProbeStoreLocked(d *compile.Deployment) {
	if s.a.opts.WarmStore == nil {
		return
	}
	if d != s.probeStoreDep {
		s.probeStoreFP = equiv.DeploymentFingerprint(d.BySwitch)
		s.probeStoreDep = d
	}
	s.seedVerdictsLocked(s.probeStoreFP, true)
}

// AnalyzeEpoch analyzes one collector epoch against the fabric's current
// deployment, anchored at the epoch's collection time — the delta
// re-verification path for periodic collection. When the session's
// previous run analyzed an earlier epoch, the epoch diff marks the dirty
// switches directly and clean switches skip fingerprinting entirely.
func (s *Session) AnalyzeEpoch(e *Epoch) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.a.opts.UseProbes {
		return nil, s.errProbeSession("AnalyzeEpoch")
	}
	d := s.f.Deployment()
	if d == nil {
		return nil, fmt.Errorf("scout: fabric has never been deployed")
	}
	var cleanTCAM map[object.ID]bool
	if s.lastEpoch != nil {
		cleanTCAM = make(map[object.ID]bool, len(e.TCAM))
		for sw := range e.TCAM {
			cleanTCAM[sw] = true
		}
		for _, sw := range collect.DirtySwitches(s.lastEpoch, e) {
			delete(cleanTCAM, sw)
		}
	}
	rep, err := s.analyzeLocked(State{
		Deployment: d,
		TCAM:       e.TCAM,
		Changes:    s.f.ChangeLog(),
		Faults:     s.f.FaultLog(),
		Now:        e.Time,
	}, cleanTCAM)
	if err != nil {
		return nil, err
	}
	s.lastEpoch = e
	return rep, nil
}

// ApplyEvents is the event-driven refresh path: instead of analyzing a
// fully collected epoch, the session re-reads only the switches the
// batch names (one coalesced batch from a stream.Queue), aliases every
// other switch's rules from its previous epoch, and runs the usual
// incremental pipeline — so a storm of K events over S switches costs
// one partial collection and at most min(S, batch) re-checks per batch,
// while the report stays byte-identical to a full AnalyzeEpoch of the
// same final state at any worker count (the fold stages are unchanged).
//
// The first ApplyEvents run of a session (or the first after Invalidate
// or a failed run dropped the epoch anchor) has no previous epoch to
// alias, so it falls back to a full collection — the baseline every
// event-driven loop needs anyway. Correctness afterwards rests on the
// event contract: a switch with no event since the previous run has an
// unchanged TCAM. Feed every dataplane event through the queue (or
// interleave periodic AnalyzeEpoch rounds) to keep that true.
//
// An empty batch (a deadline timer firing with nothing pending) replays
// the previous verdicts without touching the fabric.
func (s *Session) ApplyEvents(batch EventBatch) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.a.opts.UseProbes {
		return nil, s.errProbeSession("ApplyEvents")
	}
	d := s.f.Deployment()
	if d == nil {
		return nil, fmt.Errorf("scout: fabric has never been deployed")
	}
	var (
		tcams     map[object.ID][]rule.Rule
		cleanTCAM map[object.ID]bool
		seq       int
	)
	if s.lastEpoch == nil {
		tcams = s.f.CollectAll()
	} else {
		prev := s.lastEpoch
		seq = prev.Seq
		tcams = make(map[object.ID][]rule.Rule, len(prev.TCAM))
		cleanTCAM = make(map[object.ID]bool, len(prev.TCAM))
		for sw, rules := range prev.TCAM {
			tcams[sw] = rules
			cleanTCAM[sw] = true
		}
		for _, sw := range batch.Switches {
			rules, err := s.f.CollectTCAM(sw)
			if err != nil {
				return nil, fmt.Errorf("scout: event refresh: %w", err)
			}
			tcams[sw] = rules
			delete(cleanTCAM, sw)
		}
		s.stats.EventBatches++
		s.stats.EventSwitchesRead += len(batch.Switches)
		s.stats.EventSwitchesAliased += len(tcams) - len(batch.Switches)
	}
	now := s.f.Now()
	rep, err := s.analyzeLocked(State{
		Deployment: d,
		TCAM:       tcams,
		Changes:    s.f.ChangeLog(),
		Faults:     s.f.FaultLog(),
		Now:        now,
	}, cleanTCAM)
	if err != nil {
		return nil, err
	}
	// The synthetic epoch anchors the next partial refresh (and any
	// interleaved AnalyzeEpoch's diff). It carries the previous
	// collector sequence number forward: epoch Seq is a collector
	// lineage marker, and this epoch belongs to the session, not a
	// collector history.
	s.lastEpoch = &collect.Epoch{Seq: seq, Time: now, TCAM: tcams}
	return rep, nil
}

// AnalyzeState analyzes raw collected state incrementally (production
// users populating State themselves). The deployment and TCAM slices must
// not be mutated after the call.
func (s *Session) AnalyzeState(st State) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.a.opts.UseProbes {
		return nil, s.errProbeSession("AnalyzeState")
	}
	if st.Deployment == nil {
		return nil, fmt.Errorf("scout: state has no deployment")
	}
	return s.analyzeLocked(st, nil)
}

// Invalidate drops the cached check state of the given switches — or of
// every switch when none are given — forcing their re-check on the next
// run. Use it when out-of-band knowledge (a device RMA, a firmware
// upgrade) makes cached verdicts suspect.
func (s *Session) Invalidate(switches ...ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastEpoch = nil
	if len(switches) == 0 {
		s.cache = make(map[object.ID]*switchCheckState)
		s.probeCache = make(map[object.ID]*switchCheckState)
		s.a.swModels = make(map[object.ID]*switchModelEntry)
		return
	}
	for _, sw := range switches {
		delete(s.cache, sw)
		delete(s.probeCache, sw)
		delete(s.a.swModels, sw)
	}
}

// Reset drops every piece of cached state — per-switch reports, the
// controller-model cache, the shared encoding base, and the worker
// checkers — returning the session to cold. Statistics are preserved.
func (s *Session) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[object.ID]*switchCheckState)
	s.probeCache = make(map[object.ID]*switchCheckState)
	s.a.swModels = make(map[object.ID]*switchModelEntry)
	s.checkers = nil
	s.base = nil
	s.baseFP = 0
	s.baseDeployment = nil
	s.lastDeployment = nil
	s.ctrlPristine = nil
	s.lastEpoch = nil
}

// Close flushes the session's pending warm-state writes and reports the
// first persistence error. The warm store itself is shared — many
// sessions (and a registry) may feed one — so Close does not close it;
// the store's owner does, once, when the process winds down. A session
// without a WarmStore has nothing to flush and Close is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	ws := s.a.opts.WarmStore
	s.mu.Unlock()
	if ws == nil {
		return nil
	}
	return ws.Flush()
}

// Stats returns the session's cumulative cache statistics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ProberStats returns the probe-mode prober's counter snapshot (memo
// hits/misses and batch-classification counters) and whether a prober
// exists yet. Zero-valued until the first probe-mode Analyze.
func (s *Session) ProberStats() (probe.Stats, bool) {
	return s.a.ProberStats()
}

// analyzeLocked is the incremental pipeline. cleanTCAM, when non-nil,
// names switches whose TCAM rules are known-identical to the session's
// previous run (from an epoch diff); their fingerprints are trusted from
// cache. Every run ends byte-identical to a cold Analyzer run on the same
// State: caching only ever short-circuits the check stage, never the
// folds.
func (s *Session) analyzeLocked(st State, cleanTCAM map[object.ID]bool) (*Report, error) {
	start := time.Now()
	// Until this run completes, epoch-diff hints would compare against
	// state older than what the cache entries reflect.
	s.lastEpoch = nil
	st = st.withDefaultLogs()
	switches := st.sortedSwitches()

	// A stale controller model rebuilds beside the base build: the two
	// share nothing, and the base builds serially in one manager.
	joinModel := s.startControllerModelLocked(st.Deployment)
	depFPs := s.ensureBaseLocked(st.Deployment)
	ctrlModel := joinModel()
	foldBefore := s.foldTotalsLocked()

	// Fingerprints first: a logical list's from the cache or the base
	// check, a TCAM list's from the cache when the hint vouches for it and
	// otherwise hashed, over the worker pool like the checks.
	checkReps := make([]*equiv.Report, len(switches))
	logFPs := make([]uint64, len(switches))
	tcamFPs := make([]uint64, len(switches))
	var unhashed []int
	for i, sw := range switches {
		ent := s.cache[sw]
		if ent != nil && ent.dep == st.Deployment {
			logFPs[i] = ent.logicalFP
		} else if fp, ok := depFPs[sw]; ok {
			logFPs[i] = fp
		} else {
			logFPs[i] = equiv.Fingerprint(st.Deployment.RulesFor(sw))
		}
		if ent != nil && cleanTCAM != nil && cleanTCAM[sw] {
			tcamFPs[i] = ent.tcamFP
		} else {
			unhashed = append(unhashed, i)
		}
	}
	if len(unhashed) > 0 { // a clean epoch's replay allocates nothing here
		s.a.forEach(len(unhashed), func(k int) {
			i := unhashed[k]
			tcamFPs[i] = equiv.Fingerprint(st.TCAM[switches[i]])
		})
	}

	// Partition the switches into replays and re-checks.
	var dirty []object.ID
	var dirtyIdx []int
	for i, sw := range switches {
		ent := s.cache[sw]
		if ent == nil || logFPs[i] != ent.logicalFP || tcamFPs[i] != ent.tcamFP {
			dirty = append(dirty, sw)
			dirtyIdx = append(dirtyIdx, i)
			continue
		}
		ent.dep = st.Deployment // refresh identity for the next run's shortcut
		checkReps[i] = ent.report
	}

	var plan *dedupPlan
	if len(dirty) > 0 {
		s.provisionCheckersLocked(s.a.workers(len(dirty)))
		// Dirty switches sharing both fingerprints — which the partition
		// above already computed — check once per group. Worker k owns
		// persistent checker k for the run.
		dirtyLog := make([]uint64, len(dirty))
		dirtyTCAM := make([]uint64, len(dirty))
		for j, i := range dirtyIdx {
			dirtyLog[j] = logFPs[i]
			dirtyTCAM[j] = tcamFPs[i]
		}
		var fresh []*equiv.Report
		var err error
		fresh, plan, err = s.a.checkDeduped(st, dirty, dirtyLog, dirtyTCAM,
			func(k int) *equiv.Checker { return s.checkers[k] })
		if err != nil {
			return nil, err
		}
		s.stats.DedupGroups += plan.groups
		s.stats.DedupReplays += plan.replays
		capRules := s.missingRuleCap()
		for j, i := range dirtyIdx {
			checkReps[i] = fresh[j]
			if capRules > 0 && len(fresh[j].MissingRules)+len(fresh[j].ExtraRules) > capRules {
				// Too large to keep: drop any stale entry so the switch
				// re-checks next run instead of replaying old state.
				delete(s.cache, switches[i])
				s.stats.OverCap++
				continue
			}
			s.cache[switches[i]] = &switchCheckState{
				dep:       st.Deployment,
				logicalFP: logFPs[i],
				tcamFP:    tcamFPs[i],
				report:    fresh[j],
			}
		}
	}

	rep := s.a.assemble(ctrlModel, st.Deployment, st.Changes, st.Faults, st.Now, switches, checkReps)
	rep.Elapsed = time.Since(start)
	s.stats.Runs++
	s.stats.addLocalizeStats(rep.LocalizeStats)
	s.stats.Checked += len(dirty)
	s.stats.Replayed += len(switches) - len(dirty)
	enc := equiv.AggregateEncodeStats(s.base, s.checkers)
	plan.record(enc)
	rep.EncodeStats = enc
	s.stats.BaseNodes = enc.BaseNodes
	s.stats.DeltaNodes = enc.DeltaNodes
	s.stats.BaseSemantics = enc.BaseSemantics
	s.stats.FoldHits += enc.FoldHits() - foldBefore.hits
	s.stats.FoldMisses += enc.FoldMisses - foldBefore.misses
	// Persist the refreshed verdict cache write-behind, keyed by the base's
	// deployment fingerprint (ensureBaseLocked left it in step with this
	// deployment). A run that re-checked nothing changed no verdicts.
	if s.a.opts.WarmStore != nil && len(dirty) > 0 {
		s.saveVerdictsLocked(s.baseFP, false)
	}
	return rep, nil
}

// foldTotals is a point-in-time sum of the live checkers' cumulative
// fold counters, used to attribute per-run deltas to SessionStats (the
// checkers themselves persist across runs, so their counters alone
// cannot distinguish this run's work from history).
type foldTotals struct{ hits, misses int }

func (s *Session) foldTotalsLocked() foldTotals {
	var t foldTotals
	for _, c := range s.checkers {
		cs := c.Stats()
		t.hits += cs.FoldBaseHits + cs.FoldLocalHits
		t.misses += cs.FoldMisses
	}
	return t
}

// ensureBaseLocked keeps the shared encoding base in step with the
// deployment: reused while the deployment fingerprint is unchanged
// (pointer identity short-circuits the hashing), rebuilt — discarding
// the now-stale checker forks — when it moves. Runs before any checker
// provisioning so workers always fork the current base. When the
// deployment had to be hashed, the per-switch fingerprints are returned
// so the caller's replay/re-check partition reuses them instead of
// hashing every rule list a second time (nil on the fast paths).
func (s *Session) ensureBaseLocked(d *compile.Deployment) map[object.ID]uint64 {
	if s.base != nil && d == s.baseDeployment {
		return nil
	}
	perSwitch, fp := equiv.DeploymentFingerprints(d.BySwitch)
	if s.base != nil && fp == s.baseFP {
		// Content-identical recompile at a new address: keep the base but
		// re-point its semantics entries at the new deployment's slices,
		// so the superseded deployment is not pinned by the cache. Safe
		// here — the run lock is held and no checker is mid-check.
		s.base.RebindSemantics(d.BySwitch)
		s.baseDeployment = d
		return perSwitch
	}
	if ws := s.a.opts.WarmStore; ws != nil {
		// Warm restart: restore a fingerprint-matching frozen base from
		// the store before building one — the loaded base carries every
		// semantics root the previous process froze, so a clean fabric
		// replays with zero compiles. A missing or unverifiable file
		// (one written by an older codec included) is just a cold start:
		// the rebuild below overwrites it. Rebinding re-points the
		// collision-verification rule references at this deployment's
		// slices, releasing the decoded copies.
		if b, err := ws.LoadBase(fp); err == nil && b != nil {
			b.RebindSemantics(d.BySwitch)
			s.base = b
			s.baseFP = fp
			s.baseDeployment = d
			s.checkers = nil
			s.stats.BaseLoads++
			if reg := s.a.opts.BaseRegistry; reg != nil {
				reg.RegisterBase(b)
			}
			s.seedVerdictsLocked(fp, false)
			return perSwitch
		}
	}
	base, bstats := s.a.buildSharedBase(d)
	s.base = base
	s.baseFP = fp
	s.baseDeployment = d
	s.checkers = nil
	s.stats.BaseRebuilds++
	s.stats.BaseSemGrafts += bstats.SemGrafts
	s.stats.BaseSemFolds += bstats.SemFolds
	if ws := s.a.opts.WarmStore; ws != nil {
		ws.SaveBase(fp, base)
		s.seedVerdictsLocked(fp, false)
	}
	return perSwitch
}

// seedVerdictsLocked restores persisted per-switch verdicts for the
// deployment fingerprint into the session cache, once per (fingerprint,
// mode) pair per session. Only absent slots are filled: an in-memory
// entry is at least as fresh as the file it was persisted to. Loaded
// entries carry no deployment pointer, so the next run's partition
// verifies them by recomputed fingerprint — a replay happens only when
// the logical and TCAM rule lists hash identically, making a stale or
// foreign file safe (its entries simply never match).
func (s *Session) seedVerdictsLocked(depFP uint64, probe bool) {
	ws := s.a.opts.WarmStore
	if ws == nil {
		return
	}
	key := verdictLoadKey{fp: depFP, probe: probe}
	if _, done := s.loadedVerdicts[key]; done {
		return
	}
	s.loadedVerdicts[key] = struct{}{}
	vs, err := ws.LoadVerdicts(depFP, probe)
	if err != nil {
		return // unverifiable file: cold start for these switches
	}
	cache := s.cache
	if probe {
		cache = s.probeCache
	}
	for _, v := range vs {
		if _, ok := cache[v.Switch]; ok {
			continue
		}
		cache[v.Switch] = &switchCheckState{
			logicalFP: v.LogicalFP,
			tcamFP:    v.TCAMFP,
			report:    v.Report,
		}
	}
}

// saveVerdictsLocked schedules write-behind persistence of the current
// per-switch cache under the deployment fingerprint. The snapshot slice
// is built here, under the run lock; cached reports are immutable, so
// the background encode needs no further coordination.
func (s *Session) saveVerdictsLocked(depFP uint64, probe bool) {
	cache := s.cache
	if probe {
		cache = s.probeCache
	}
	vs := make([]store.Verdict, 0, len(cache))
	for sw, ent := range cache {
		vs = append(vs, store.Verdict{
			Switch:    sw,
			LogicalFP: ent.logicalFP,
			TCAMFP:    ent.tcamFP,
			Report:    ent.report,
		})
	}
	s.a.opts.WarmStore.SaveVerdicts(depFP, probe, vs)
}

// startControllerModelLocked prepares a fresh working controller view: a
// copy-on-write overlay over the cached immutable pristine model while
// the deployment is unchanged, a new (sharded) build — cached as the next
// pristine core — otherwise. The overlay shares the pristine core's
// element and risk IDs and records only this run's failure marks, so
// localization through it is indistinguishable from a cold build or a
// deep clone while per-run setup cost stays O(dirty failures) instead of
// O(model size). The session never mutates the pristine model itself.
//
// A rebuild runs on its own goroutine from this call on; join, called once
// and still under the session lock, waits for it and returns the view.
func (s *Session) startControllerModelLocked(d *compile.Deployment) (join func() risk.Marker) {
	if s.ctrlPristine != nil && d == s.lastDeployment {
		return func() risk.Marker { return risk.NewOverlay(s.ctrlPristine) }
	}
	built := s.a.startControllerModel(d)
	return func() risk.Marker {
		s.ctrlPristine, s.lastDeployment = built(), d
		return risk.NewOverlay(s.ctrlPristine)
	}
}

// missingRuleCap resolves the per-switch cached-rule bound: 0 picks the
// default, negative disables the cap (returns 0 = unbounded).
func (s *Session) missingRuleCap() int {
	c := s.a.opts.SessionMissingRuleCap
	if c == 0 {
		return defaultSessionMissingRuleCap
	}
	if c < 0 {
		return 0
	}
	return c
}

// provisionCheckersLocked grows the persistent checker pool to n entries
// — forks of the shared base — and brings any checker whose private delta
// exceeded the node budget back under it, before the worker pool starts
// (workers must never mutate the slice concurrently).
// Over-budget checkers compact first (delta GC keeping live memo state)
// and fall back to a full Reset only when the live state alone is over
// budget — the ROADMAP's "smarter than whole-delta Reset".
func (s *Session) provisionCheckersLocked(n int) {
	budget := s.sessionNodeBudget()
	for len(s.checkers) < n {
		// Forks pre-size their node array and tables for the expected
		// delta, skipping the growth ramp.
		s.checkers = append(s.checkers, s.base.NewCheckerSized(s.checkerDeltaHint(budget)))
	}
	if budget <= 0 {
		return
	}
	for _, c := range s.checkers[:n] {
		if c.DeltaSize() <= budget {
			continue
		}
		if st, ok := c.Compact(); ok {
			s.stats.CheckerCompactions++
			s.stats.CompactRetained += st.Retained
			s.stats.CompactDropped += st.Dropped
			if c.DeltaSize() <= budget {
				continue
			}
		}
		c.Reset()
		s.stats.CheckerResets++
	}
}

// sessionNodeBudget resolves the configured per-checker delta budget:
// the default when unset, no bound when negative.
func (s *Session) sessionNodeBudget() int {
	b := s.a.opts.SessionNodeBudget
	if b == 0 {
		return sessionCheckerNodeBudget
	}
	if b < 0 {
		return 0
	}
	return b
}

// checkerDeltaHint derives the fork pre-sizing from the budget: a
// fraction of it (deltas rarely fill the budget between compactions),
// clamped so tiny budgets still get workable tables and huge ones do
// not front-load allocation the checker may never need.
func (s *Session) checkerDeltaHint(budget int) int {
	h := budget / 16
	if h < 4096 {
		return 4096
	}
	if h > 1<<18 {
		return 1 << 18
	}
	return h
}
