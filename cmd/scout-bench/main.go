// Command scout-bench regenerates the paper's evaluation tables and
// figures (§VI). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured comparisons.
//
// Usage:
//
//	scout-bench -experiment all
//	scout-bench -experiment fig8 -scale 1.0 -runs 30
//	scout-bench -experiment scale -switches 10,50,100,200,500
//	scout-bench -experiment parallel -scale 0.5 -workers 8
//	scout-bench -experiment foldshare -scale 0.25
//	scout-bench -experiment storm -scale 0.25
//	scout-bench -experiment probereuse -scale 0.25
//	scout-bench -experiment bddspeed -scale 0.25
//	scout-bench -experiment warmstore -scale 0.25
//	scout-bench -experiment localizer -scale 0.25
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"scout"
	"scout/internal/bdd"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/localize"
	"scout/internal/risk"
	"scout/internal/workload"
)

// config carries the flag values so tests can drive run directly.
type config struct {
	experiment string
	scale      float64
	seed       int64
	runs       int
	maxFaults  int
	noise      int
	switchList string
	workers    int
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.experiment, "experiment", "all", "fig3|fig7a|fig7b|fig8|fig9|fig10|ablation|scale|parallel|incremental|overlay|foldshare|storm|probereuse|bddspeed|warmstore|localizer|all")
	flag.Float64Var(&cfg.scale, "scale", 0.25, "production-spec scale for simulation experiments (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 42, "experiment seed")
	flag.IntVar(&cfg.runs, "runs", 30, "repetitions per accuracy data point")
	flag.IntVar(&cfg.maxFaults, "faults", 10, "max simultaneous faults for accuracy experiments")
	flag.IntVar(&cfg.noise, "noise", 5, "healthy recently-changed objects per scenario")
	flag.StringVar(&cfg.switchList, "switches", "10,25,50,100,200", "comma-separated switch counts for -experiment scale")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel per-switch equivalence checkers (0 = NumCPU, 1 = serial)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scout-bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	want := func(name string) bool { return cfg.experiment == "all" || cfg.experiment == name }
	simEnv := func() (*eval.Env, error) {
		start := time.Now()
		env, err := eval.NewEnv(eval.SimSpec(cfg.scale), cfg.seed)
		if err != nil {
			return nil, err
		}
		st := env.Policy.Stats()
		fmt.Fprintf(w, "[workload] production-like scale=%.2f: %d EPGs, %d contracts, %d filters, %d pairs (%v)\n\n",
			cfg.scale, st.EPGs, st.Contracts, st.Filters, st.EPGPairs, time.Since(start).Round(time.Millisecond))
		return env, nil
	}

	var env *eval.Env
	getEnv := func() (*eval.Env, error) {
		if env != nil {
			return env, nil
		}
		var err error
		env, err = simEnv()
		return env, err
	}

	if want("fig3") {
		e, err := getEnv()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 3: EPG pairs per object (CDF checkpoints) ==")
		fmt.Fprintln(w, eval.Figure3(e).Render())
	}

	if want("fig7a") {
		fmt.Fprintln(w, "== Figure 7(a): suspect-set reduction γ, testbed (200 faults) ==")
		tb, err := eval.NewEnv(workload.TestbedSpec(), cfg.seed)
		if err != nil {
			return err
		}
		res, err := eval.SuspectSetReduction(tb, eval.GammaOptions{
			Faults:  200,
			Buckets: [][2]int{{1, 10}, {10, 20}, {20, 40}, {40, 60}},
			Noise:   cfg.noise,
			Seed:    cfg.seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("fig7b") {
		e, err := getEnv()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 7(b): suspect-set reduction γ, simulation (1500 faults) ==")
		res, err := eval.SuspectSetReduction(e, eval.GammaOptions{
			Faults:  1500,
			Buckets: [][2]int{{1, 10}, {10, 50}, {50, 100}, {100, 500}, {500, 1000}},
			Noise:   cfg.noise,
			Seed:    cfg.seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	accOpts := eval.AccuracyOptions{MaxFaults: cfg.maxFaults, Runs: cfg.runs, Noise: cfg.noise, Seed: cfg.seed}

	if want("fig8") {
		e, err := getEnv()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 8: precision/recall on the switch risk model ==")
		res, err := eval.SwitchModelAccuracy(e, accOpts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("fig9") {
		e, err := getEnv()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 9: precision/recall on the controller risk model ==")
		res, err := eval.ControllerModelAccuracy(e, accOpts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("fig10") {
		fmt.Fprintln(w, "== Figure 10: testbed end-to-end, SCOUT vs SCORE-1 ==")
		res, err := eval.TestbedAccuracy(workload.TestbedSpec(), eval.TestbedOptions{
			MaxFaults: cfg.maxFaults,
			Runs:      minInt(cfg.runs, 10), // paper uses 10 runs on the testbed
			Noise:     cfg.noise,
			Seed:      cfg.seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("ablation") {
		e, err := getEnv()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: SCOUT with vs without the change-log stage ==")
		opts := accOpts
		opts.Algorithms = append(eval.StandardAlgorithms(), eval.ScoutNoChangeLog())
		res, err := eval.ControllerModelAccuracy(e, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("scale") {
		fmt.Fprintln(w, "== Scalability: SCOUT runtime vs switch count (§VI-B) ==")
		counts, err := parseInts(cfg.switchList)
		if err != nil {
			return err
		}
		res, err := eval.Scalability(counts, 5, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if want("parallel") {
		fmt.Fprintln(w, "== Parallel check stage: serial vs sharded per-switch checking ==")
		if err := runParallel(cfg, w); err != nil {
			return err
		}
	}

	if want("incremental") {
		fmt.Fprintln(w, "== Incremental sessions: cold full analysis vs warm delta re-verification ==")
		if err := runIncremental(cfg, w); err != nil {
			return err
		}
	}

	if want("overlay") {
		fmt.Fprintln(w, "== Immutable risk core: sharded build + copy-on-write overlays vs clone ==")
		if err := runOverlay(cfg, w); err != nil {
			return err
		}
	}

	if want("foldshare") {
		fmt.Fprintln(w, "== Fold sharing: frozen whole-switch semantics + check dedup ==")
		if err := runFoldShare(cfg, w); err != nil {
			return err
		}
	}

	if want("storm") {
		fmt.Fprintln(w, "== Event storm: coalescing queue + partial collection vs per-event rounds ==")
		if err := runStorm(cfg, w); err != nil {
			return err
		}
	}

	if want("probereuse") {
		fmt.Fprintln(w, "== Probe reuse: batched classification + fingerprint-keyed replay ==")
		if err := runProbeReuse(cfg, w); err != nil {
			return err
		}
	}

	if want("bddspeed") {
		fmt.Fprintln(w, "== BDD core: open-addressed engine vs map-backed reference ==")
		if err := runBDDSpeed(cfg, w); err != nil {
			return err
		}
	}

	if want("warmstore") {
		fmt.Fprintln(w, "== Warm store: durable cross-restart BDD state ==")
		if err := runWarmStore(cfg, w); err != nil {
			return err
		}
	}

	if want("localizer") {
		fmt.Fprintln(w, "== Localization engine: compiled CSR/bitset plans vs map-based reference ==")
		if err := runLocalizer(cfg, w); err != nil {
			return err
		}
	}
	return nil
}

// runProbeReuse measures the probe-mode warm path: each session round
// fingerprints every switch's TCAM, replays the cached verdict for
// clean switches, and classifies only the dirty ones' probe batches in
// one rule-major pass. Asserting on counters only (CI runners may be
// single-core):
//
//   - every round partitions the fabric exactly: switches classified +
//     switches replayed == the switch count, and the prober's batch
//     passes never exceed the switches classified (one priority-ordered
//     pass per dirty switch, none for replays);
//   - a clean warm round classifies zero switches and leaves every
//     prober counter stationary — no Classify call reaches any TCAM;
//   - after a fault dirties a subset, only that subset is re-classified
//     and every round's report stays byte-identical to a cold one-shot
//     probe analysis of the same fabric state.
func runProbeReuse(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	numSwitches := topo.NumSwitches()
	fmt.Fprintf(w, "fabric: %d switches, %d EPG pairs\n\n", numSwitches, pol.Stats().EPGPairs)

	opts := scout.AnalyzerOptions{Workers: cfg.workers, UseProbes: true}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		return err
	}

	// coldJSON runs a fresh one-shot probe analyzer over the fabric's
	// current state — the identity reference for every session round.
	coldJSON := func() ([]byte, time.Duration, error) {
		rep, err := scout.NewAnalyzer(opts).Analyze(f)
		if err != nil {
			return nil, 0, err
		}
		elapsed := rep.Elapsed
		rep.Elapsed = 0
		data, err := json.Marshal(rep)
		return data, elapsed, err
	}
	round := func(label string, wantClassified int) (time.Duration, error) {
		before := sess.Stats()
		var pBefore scout.ProberStats
		if ps, ok := sess.ProberStats(); ok {
			pBefore = ps
		}
		rep, err := sess.Analyze()
		if err != nil {
			return 0, err
		}
		elapsed := rep.Elapsed
		after := sess.Stats()
		pAfter, _ := sess.ProberStats()
		classified := after.ProbeSwitchesClassified - before.ProbeSwitchesClassified
		replayed := after.ProbeSwitchesReplayed - before.ProbeSwitchesReplayed
		passes := pAfter.BatchPasses - pBefore.BatchPasses
		fmt.Fprintf(w, "%-28s %3d classified + %3d replayed, %3d batch passes, %v\n",
			label+":", classified, replayed, passes, elapsed.Round(time.Microsecond))
		if classified+replayed != numSwitches {
			return 0, fmt.Errorf("%s: classified %d + replayed %d != %d switches (partition violation)",
				label, classified, replayed, numSwitches)
		}
		if classified != wantClassified {
			return 0, fmt.Errorf("%s: classified %d switches, want %d", label, classified, wantClassified)
		}
		if passes > classified {
			return 0, fmt.Errorf("%s: %d batch passes exceed %d classified switches", label, passes, classified)
		}
		if pAfter.FallbackProbes != pBefore.FallbackProbes {
			return 0, fmt.Errorf("%s: per-packet fallback engaged (%d probes) — TCAMs must batch",
				label, pAfter.FallbackProbes-pBefore.FallbackProbes)
		}
		if wantClassified == 0 && pAfter != pBefore {
			return 0, fmt.Errorf("%s: prober counters moved on a clean round: %+v -> %+v (a Classify leaked)",
				label, pBefore, pAfter)
		}
		rep.Elapsed = 0
		got, err := json.Marshal(rep)
		if err != nil {
			return 0, err
		}
		want, coldElapsed, err := coldJSON()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			return 0, fmt.Errorf("%s: warm probe report differs from cold analysis (identity violation)", label)
		}
		return coldElapsed, nil
	}

	if _, err := round("baseline: full probe round", numSwitches); err != nil {
		return err
	}
	coldElapsed, err := round("clean warm round", 0)
	if err != nil {
		return err
	}

	// Dirty a strict subset: evict the top rule on min(3, N) switches.
	dirty := minInt(3, numSwitches)
	for _, sw := range topo.Switches()[:dirty] {
		s, err := f.Switch(sw)
		if err != nil {
			return err
		}
		rules, err := f.CollectTCAM(sw)
		if err != nil {
			return err
		}
		if len(rules) == 0 || !s.TCAM().Remove(rules[0].Key()) {
			return fmt.Errorf("could not dirty switch %d", sw)
		}
	}
	if _, err := round(fmt.Sprintf("after %d-switch fault", dirty), dirty); err != nil {
		return err
	}
	if _, err := round("warm round over fault", 0); err != nil {
		return err
	}

	st := sess.Stats()
	ps, _ := sess.ProberStats()
	fmt.Fprintf(w, "\nsession totals: %d runs, %d switches classified, %d replayed, %d packets batched\n",
		st.Runs, st.ProbeSwitchesClassified, st.ProbeSwitchesReplayed, st.ProbePacketsBatched)
	fmt.Fprintf(w, "prober: packet memo %d hits / %d misses, %d batch passes (%d packets), %d fallback probes\n",
		ps.MemoHits, ps.MemoMisses, ps.BatchPasses, ps.BatchedPackets, ps.FallbackProbes)
	if ps.BatchedPackets != st.ProbePacketsBatched {
		return fmt.Errorf("session counted %d batched packets, prober %d (accounting drift)",
			st.ProbePacketsBatched, ps.BatchedPackets)
	}
	fmt.Fprintln(w, "every round: classified + replayed == switches, batch passes <= classified: true")
	fmt.Fprintln(w, "clean warm rounds classified zero switches with stationary prober counters: true")
	fmt.Fprintf(w, "warm reports byte-identical to cold probe analysis (cold reference %v): true\n",
		coldElapsed.Round(time.Millisecond))
	return nil
}

// runStorm measures the event-driven streaming layer under a burst
// storm: K events over S switches drain through the coalescing queue
// into size-cut batches, each applied as one partial session refresh.
// Asserting on counters only (CI runners may be single-core):
//
//   - coalescing re-checks each distinct switch at most once per batch:
//     the switch marks that ever became batch members equal pushes minus
//     coalesced merges, no batch exceeds the configured size, and total
//     refresh work is bounded by batches x min(S, batch) with at most
//     ceil(K/batch) batches;
//   - partial collection reads only dirty switches: the session's
//     event-path reads equal the queue's batched switch marks, everything
//     else aliases the previous epoch, and an event-subscribed collector
//     re-reads exactly the S distinct storm switches;
//   - the drained stream's report must be byte-identical to a full
//     AnalyzeEpoch of the same final state.
func runStorm(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	// Storm a strict subset of the fabric so partial epochs have clean
	// switches to alias (half the switches, capped at 8, at least 2).
	numSwitches := topo.NumSwitches()
	stormS := minInt(8, maxInt(2, numSwitches/2))
	const perSwitch = 15 // odd: every storm switch ends with its top rule missing
	const batchSize = 4
	events := stormS * perSwitch
	fmt.Fprintf(w, "fabric: %d switches; storm: %d events over %d switches, batch size %d\n\n",
		numSwitches, events, stormS, batchSize)

	opts := scout.AnalyzerOptions{Workers: cfg.workers}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		return err
	}
	refSess, err := scout.NewSession(f, opts)
	if err != nil {
		return err
	}
	collector := scout.NewCollector(f, 4)
	evCollector := scout.NewCollector(f, 4)
	evCollector.Subscribe(f.EventLog())
	baseEpoch := evCollector.Snapshot()

	// Baselines: both sessions anchor on the same full state.
	if _, err := sess.ApplyEvents(scout.EventBatch{}); err != nil {
		return err
	}
	if _, err := refSess.AnalyzeEpoch(collector.Snapshot()); err != nil {
		return err
	}

	// The storm: bursts of perSwitch toggle events per switch, appended
	// to the fabric's stream the way its monitoring plane would.
	cursor := f.EventLog().TailCursor()
	stormSwitches := topo.Switches()[:stormS]
	for _, sw := range stormSwitches {
		s, err := f.Switch(sw)
		if err != nil {
			return err
		}
		rules, err := f.CollectTCAM(sw)
		if err != nil {
			return err
		}
		if len(rules) == 0 {
			return fmt.Errorf("switch %d has an empty TCAM", sw)
		}
		target := rules[0]
		for phase := 0; phase < perSwitch; phase++ {
			if phase%2 == 0 {
				if !s.TCAM().Remove(target.Key()) {
					return fmt.Errorf("switch %d: toggle remove failed", sw)
				}
			} else if err := s.TCAM().Install(target); err != nil {
				return err
			}
			f.EventLog().Append(f.Now(), scout.EventTCAMChange, sw, "storm")
		}
	}

	// Drain the storm through the queue; apply every size-cut batch.
	queue := scout.NewEventQueue(scout.EventQueueOptions{Cap: 64, BatchSize: batchSize})
	for _, ev := range cursor.Drain() {
		if queue.Push(ev) {
			if _, err := sess.ApplyEvents(queue.Cut(f.Now())); err != nil {
				return err
			}
		}
	}
	for queue.Len() > 0 {
		if _, err := sess.ApplyEvents(queue.Cut(f.Now())); err != nil {
			return err
		}
	}
	final, err := sess.ApplyEvents(scout.EventBatch{}) // pure replay at the current clock
	if err != nil {
		return err
	}

	qs := queue.Stats()
	st := sess.Stats()
	fmt.Fprintf(w, "queue: %d pushed, %d coalesced into %d switch refreshes across %d batches (max %d)\n",
		qs.Pushed, qs.Coalesced, qs.BatchedSwitches, qs.Batches, qs.MaxBatch)
	fmt.Fprintf(w, "session: %d event batches, %d switches re-read, %d aliased\n",
		st.EventBatches, st.EventSwitchesRead, st.EventSwitchesAliased)

	if qs.Pushed != events {
		return fmt.Errorf("queue saw %d events, want %d", qs.Pushed, events)
	}
	if qs.BatchedSwitches != qs.Pushed-qs.Coalesced {
		return fmt.Errorf("batched switch marks %d != pushes %d - coalesced %d (a mark was dropped or duplicated)",
			qs.BatchedSwitches, qs.Pushed, qs.Coalesced)
	}
	if qs.MaxBatch > batchSize {
		return fmt.Errorf("batch of %d switches exceeds configured size %d", qs.MaxBatch, batchSize)
	}
	maxBatches := (events + batchSize - 1) / batchSize
	if qs.Batches > maxBatches {
		return fmt.Errorf("%d batches for %d events, want at most ceil(K/batch) = %d", qs.Batches, events, maxBatches)
	}
	if bound := qs.Batches * minInt(stormS, batchSize); qs.BatchedSwitches > bound {
		return fmt.Errorf("%d switch refreshes exceed batches x min(S, batch) = %d", qs.BatchedSwitches, bound)
	}
	fmt.Fprintf(w, "re-check work bounded by batches x min(S, batch): %d <= %d\n",
		qs.BatchedSwitches, qs.Batches*minInt(stormS, batchSize))

	// Partial collection reads only dirty switches. The +1 event batch is
	// the final empty replay, which reads nothing.
	if st.EventBatches != qs.Batches+1 {
		return fmt.Errorf("session ran %d event batches, want %d cuts + 1 empty replay", st.EventBatches, qs.Batches)
	}
	if st.EventSwitchesRead != qs.BatchedSwitches {
		return fmt.Errorf("session re-read %d switches, want exactly the %d batch members", st.EventSwitchesRead, qs.BatchedSwitches)
	}
	if st.EventSwitchesAliased != st.EventBatches*numSwitches-st.EventSwitchesRead {
		return fmt.Errorf("aliased %d switches, want %d (everything not re-read)",
			st.EventSwitchesAliased, st.EventBatches*numSwitches-st.EventSwitchesRead)
	}
	fmt.Fprintln(w, "partial refreshes read only batch members, aliased the rest: true")

	// Event-subscribed collector: one partial epoch reading exactly the
	// distinct storm switches.
	evEpoch, consumed, err := evCollector.SnapshotEvents()
	if err != nil {
		return err
	}
	cs := evCollector.Stats()
	if len(consumed) != events {
		return fmt.Errorf("collector consumed %d events, want %d", len(consumed), events)
	}
	if got := cs.SwitchesRead - numSwitches; got != stormS {
		return fmt.Errorf("event-driven epoch read %d switches, want the %d distinct storm switches", got, stormS)
	}
	dirty := scout.DirtyEpochSwitches(baseEpoch, evEpoch)
	if len(dirty) != stormS {
		return fmt.Errorf("event-driven epoch dirtied %d switches, want %d", len(dirty), stormS)
	}
	fmt.Fprintf(w, "event-driven collector: 1 partial epoch, %d/%d switches read, %d aliased: true\n",
		cs.SwitchesRead-numSwitches, numSwitches, cs.SwitchesAliased)

	// Byte-identity against a full AnalyzeEpoch of the same final state.
	want, err := refSess.AnalyzeEpoch(collector.Snapshot())
	if err != nil {
		return err
	}
	final.Elapsed, want.Elapsed = 0, 0
	fData, err := json.Marshal(final)
	if err != nil {
		return err
	}
	wData, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(fData, wData) {
		return fmt.Errorf("streamed report differs from full AnalyzeEpoch (equivalence violation)")
	}
	if final.Consistent || final.TotalMissing == 0 {
		return fmt.Errorf("storm left no visible faults — the toggles should end with rules missing")
	}
	fmt.Fprintf(w, "streamed report byte-identical to full AnalyzeEpoch (%d missing rules flagged): true\n",
		final.TotalMissing)
	return nil
}

// runFoldShare measures the semantics-sharing layer on top of the shared
// base: whole-switch semantics folds frozen once at warmup and resolved
// by fingerprint, plus whole-switch check dedup across byte-equal
// switches. The fabric state is extended with clone switches (byte-equal
// logical and TCAM lists) so duplicated-fingerprint groups exist by
// construction, then, asserting on node/check counters only (CI runners
// may be single-core):
//
//   - what the base shares must not depend on the worker count: its node
//     count, its frozen roots and the fold misses left to the forks are
//     identical at 1, 2 and 4 workers (total nodes are printed, not gated —
//     the per-fork deltas hold the paths a drifted TCAM list changed and
//     the difference BDDs, and which fork interns a subtree two drifted
//     lists share depends on how the scheduler spreads the switches);
//   - each duplicated-fingerprint group must run exactly one semantics
//     build per distinct rule list: fold misses across base and forks
//     must equal the number of distinct unwarmed lists, and every clone
//     must replay its group's verdict;
//   - reports must stay byte-identical to the private (no base, no
//     dedup) mode at every worker count.
func runFoldShare(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	filters := make([]scout.ObjectID, 0, len(pol.Filters))
	for id := range pol.Filters {
		filters = append(filters, id)
	}
	sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })
	for _, id := range filters[:minInt(3, len(filters))] {
		if _, err := f.InjectObjectFault(scout.FilterRef(id), 1.0); err != nil {
			return err
		}
	}

	// Extend the state with clone switches (eval.DuplicateSwitches,
	// shared with the dedup regression tests): every other switch gets a
	// byte-equal twin (same logical rules, same TCAM snapshot), the
	// duplicate groups the dedup collapses.
	dup, dupTCAM, clones := eval.DuplicateSwitches(f.Deployment(), f.CollectAll())
	st := scout.State{
		Deployment: dup,
		TCAM:       dupTCAM,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
	fmt.Fprintf(w, "fabric: %d switches (+%d byte-equal clones), 3 filter faults injected\n\n",
		topo.NumSwitches(), clones)

	// Expected build counts, derived from the state itself: the base
	// freezes one root per distinct logical semantics fingerprint, and
	// the forks fold only group representatives' TCAM lists whose
	// fingerprint no logical list warmed.
	logicalSem := make(map[uint64]bool)
	for _, rules := range dup.BySwitch {
		logicalSem[equiv.SemanticsFingerprint(rules)] = true
	}
	groupTCAM := make(map[[2]uint64]uint64, len(dupTCAM))
	for sw, rules := range dupTCAM {
		key := [2]uint64{equiv.Fingerprint(dup.BySwitch[sw]), equiv.Fingerprint(rules)}
		groupTCAM[key] = equiv.SemanticsFingerprint(rules)
	}
	unwarmed := make(map[uint64]bool)
	for _, fp := range groupTCAM {
		if !logicalSem[fp] {
			unwarmed[fp] = true
		}
	}

	measure := func(workers int, private bool) (*scout.Report, []byte, error) {
		rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{
			Workers: workers, PrivateCheckers: private,
		}).AnalyzeState(st)
		if err != nil {
			return nil, nil, err
		}
		rep.Elapsed = 0
		data, err := json.Marshal(rep)
		return rep, data, err
	}

	fmt.Fprintf(w, "%-8s %13s %12s %12s %12s %12s %12s\n",
		"workers", "total nodes", "base nodes", "sem frozen", "fold hits", "fold misses", "dedup replay")
	var baseNodes1 int
	for _, workers := range []int{1, 2, 4} {
		shRep, shJSON, err := measure(workers, false)
		if err != nil {
			return err
		}
		_, privJSON, err := measure(workers, true)
		if err != nil {
			return err
		}
		if !bytes.Equal(privJSON, shJSON) {
			return fmt.Errorf("workers=%d: fold-share report differs from private (identity violation)", workers)
		}
		es := shRep.EncodeStats
		fmt.Fprintf(w, "%-8d %13d %12d %12d %12d %12d %12d\n",
			workers, es.TotalNodes(), es.BaseNodes, es.BaseSemantics, es.FoldHits(), es.FoldMisses, es.DedupReplays)

		if es.BaseSemantics != len(logicalSem) {
			return fmt.Errorf("workers=%d: base froze %d semantics roots, want %d (one per distinct logical list)",
				workers, es.BaseSemantics, len(logicalSem))
		}
		if es.FoldMisses != len(unwarmed) {
			return fmt.Errorf("workers=%d: %d private folds, want %d — one semantics build per distinct unwarmed list",
				workers, es.FoldMisses, len(unwarmed))
		}
		if es.DedupReplays != clones {
			return fmt.Errorf("workers=%d: %d dedup replays, want one per clone (%d)",
				workers, es.DedupReplays, clones)
		}
		if workers == 1 {
			baseNodes1 = es.BaseNodes
		} else if es.BaseNodes != baseNodes1 {
			return fmt.Errorf("workers=%d: base holds %d nodes, %d at 1 worker — the shared base depends on the worker count",
				workers, es.BaseNodes, baseNodes1)
		}
	}
	fmt.Fprintln(w, "\nreports byte-identical to private mode at every worker count: true")
	fmt.Fprintf(w, "semantics builds: %d frozen at warmup + %d per-fork = one per distinct rule list\n",
		len(logicalSem), len(unwarmed))
	fmt.Fprintln(w, "base nodes, frozen roots and fold misses identical from 1 to 4 workers: true")
	return nil
}

// runOverlay measures the two costs the immutable-core refactor removes
// from the warm loop: (a) per-run setup — a copy-on-write overlay over
// the cached pristine controller model vs the deep Model.Clone() warm
// sessions used to pay, which scales with model size; and (b) the cold
// controller-model build — serial vs sharded by switch across workers.
// Both paths must be observationally identical; the sharded build is
// verified deeply equal to the serial one and the overlay is verified to
// localize a fault scenario exactly like an annotated clone.
func runOverlay(cfg config, w io.Writer) error {
	env, err := eval.NewEnv(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opts := risk.ControllerModelOptions{IncludeSwitchRisk: true}

	// (b) Cold build: serial vs sharded.
	buildTime := func(workers int) (*risk.Model, time.Duration) {
		start := time.Now()
		m := risk.BuildControllerModelParallel(env.Deployment, opts, workers)
		return m, time.Since(start)
	}
	serial, serialBuild := buildTime(1)
	sharded, shardedBuild := buildTime(workers)
	fmt.Fprintf(w, "controller model (scale=%.2f): %d switches, %d elements, %d risks, %d edges\n",
		cfg.scale, env.Topo.NumSwitches(), serial.NumElements(), serial.NumRisks(), serial.NumEdges())
	fmt.Fprintf(w, "cold build serial  (workers=1):  %v\n", serialBuild.Round(time.Microsecond))
	fmt.Fprintf(w, "cold build sharded (workers=%d): %v\n", workers, shardedBuild.Round(time.Microsecond))
	if shardedBuild > 0 {
		fmt.Fprintf(w, "build speedup: %.2fx (bounded by GOMAXPROCS=%d)\n",
			float64(serialBuild)/float64(shardedBuild), runtime.GOMAXPROCS(0))
	}
	if !reflect.DeepEqual(serial, sharded) {
		return fmt.Errorf("sharded build differs from serial (determinism violation)")
	}
	fmt.Fprintln(w, "sharded build identical to serial: true")

	// (a) Warm-run setup: Clone() is O(model size), an overlay is O(1)
	// regardless of model size.
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		_ = serial.Clone()
	}
	clonePer := time.Since(start) / reps
	start = time.Now()
	var lastOverlay *risk.Overlay
	for i := 0; i < reps; i++ {
		lastOverlay = risk.NewOverlay(serial)
	}
	overlayPer := time.Since(start) / reps
	fmt.Fprintf(w, "\nwarm-run setup, avg of %d: clone %v vs overlay %v",
		reps, clonePer.Round(time.Nanosecond), overlayPer.Round(time.Nanosecond))
	if overlayPer > 0 {
		fmt.Fprintf(w, " (%.0fx)", float64(clonePer)/float64(overlayPer))
	}
	fmt.Fprintln(w)

	// Interchangeability on a real fault scenario: identical hypotheses.
	rng := rand.New(rand.NewSource(cfg.seed))
	sc, err := workload.NewScenario(rng, env.Index.Objects(), 5, cfg.noise)
	if err != nil {
		return err
	}
	clone := serial.Clone()
	workload.ApplyToControllerModel(clone, env.Deployment, env.Index, sc, rand.New(rand.NewSource(cfg.seed+1)))
	workload.ApplyToControllerModel(lastOverlay, env.Deployment, env.Index, sc, rand.New(rand.NewSource(cfg.seed+1)))
	cRes := localize.Scout(clone, localize.SetOracle(sc.Changed))
	oRes := localize.Scout(lastOverlay, localize.SetOracle(sc.Changed))
	if !reflect.DeepEqual(cRes, oRes) {
		return fmt.Errorf("overlay localization differs from clone (interchangeability violation)")
	}
	fmt.Fprintf(w, "5-fault scenario: %d observations, hypothesis %d objects, gamma %.4f\n",
		cRes.Explained+len(cRes.Unexplained), len(oRes.Hypothesis), oRes.Gamma(lastOverlay))
	fmt.Fprintln(w, "overlay localization identical to clone: true")
	return nil
}

// runIncremental measures a persistent analysis session against the
// one-shot analyzer on the same fabric: after a warm-up run, one switch's
// TCAM is touched and the warm session re-checks only that switch while
// the cold analyzer redoes the whole fabric. The reports must stay
// byte-identical (the session's replay contract).
func runIncremental(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	fmt.Fprintf(w, "fabric: %d switches, %d EPG pairs\n", topo.NumSwitches(), pol.Stats().EPGPairs)

	opts := scout.AnalyzerOptions{Workers: cfg.workers}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		return err
	}
	collector := scout.NewCollector(f, 4)

	coldSession, err := sess.AnalyzeEpoch(collector.Snapshot())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cold session run (all %d switches checked): %v\n",
		len(coldSession.Switches), coldSession.Elapsed.Round(time.Millisecond))

	// Touch exactly one switch: evict its highest-priority rule.
	sw := topo.Switches()[0]
	s, err := f.Switch(sw)
	if err != nil {
		return err
	}
	rules, err := f.CollectTCAM(sw)
	if err != nil {
		return err
	}
	if len(rules) == 0 || !s.TCAM().Remove(rules[0].Key()) {
		return fmt.Errorf("could not touch switch %d", sw)
	}

	before := sess.Stats()
	epoch := collector.Snapshot()
	warm, err := sess.AnalyzeEpoch(epoch)
	if err != nil {
		return err
	}
	checked := sess.Stats().Checked - before.Checked
	fmt.Fprintf(w, "warm delta run (%d/%d switches re-checked): %v\n",
		checked, len(warm.Switches), warm.Elapsed.Round(time.Millisecond))

	cold, err := scout.NewAnalyzer(opts).AnalyzeState(scout.State{
		Deployment: f.Deployment(),
		TCAM:       epoch.TCAM,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        epoch.Time,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cold full analysis of the same state: %v\n", cold.Elapsed.Round(time.Millisecond))
	if warm.Elapsed > 0 {
		fmt.Fprintf(w, "speedup: %.2fx\n", float64(cold.Elapsed)/float64(warm.Elapsed))
	}

	warm.Elapsed, cold.Elapsed = 0, 0
	wData, err := json.Marshal(warm)
	if err != nil {
		return err
	}
	cData, err := json.Marshal(cold)
	if err != nil {
		return err
	}
	if !bytes.Equal(wData, cData) {
		return fmt.Errorf("warm report differs from cold (replay violation)")
	}
	fmt.Fprintln(w, "reports byte-identical: true")
	return nil
}

// runParallel measures the end-to-end analyzer with the serial check
// stage against the sharded one on the same faulty fabric, and verifies
// the reports are byte-identical (the pool's determinism contract).
func runParallel(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	filters := make([]scout.ObjectID, 0, len(pol.Filters))
	for id := range pol.Filters {
		filters = append(filters, id)
	}
	sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })
	for _, id := range filters[:minInt(3, len(filters))] {
		if _, err := f.InjectObjectFault(scout.FilterRef(id), 1.0); err != nil {
			return err
		}
	}
	st := pol.Stats()
	fmt.Fprintf(w, "fabric: %d switches, %d EPG pairs, 3 filter faults injected\n",
		topo.NumSwitches(), st.EPGPairs)

	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	measure := func(workers int) (time.Duration, []byte, error) {
		rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).Analyze(f)
		if err != nil {
			return 0, nil, err
		}
		elapsed := rep.Elapsed
		rep.Elapsed = 0
		data, err := json.Marshal(rep)
		return elapsed, data, err
	}
	serialTime, serialRep, err := measure(1)
	if err != nil {
		return err
	}
	parTime, parRep, err := measure(workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serial   (workers=1):  %v\n", serialTime.Round(time.Millisecond))
	fmt.Fprintf(w, "parallel (workers=%d): %v\n", workers, parTime.Round(time.Millisecond))
	if parTime > 0 {
		fmt.Fprintf(w, "speedup: %.2fx\n", float64(serialTime)/float64(parTime))
	}
	if !bytes.Equal(serialRep, parRep) {
		return fmt.Errorf("parallel report differs from serial (determinism violation)")
	}
	fmt.Fprintln(w, "reports byte-identical: true")
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad switch count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runBDDSpeed gates the open-addressed BDD engine (packed-key unique
// table, tiered L1/L2 op cache, delta GC) against the map-backed
// reference implementation it replaced. Assertions are on reports and
// node/cache counters, never wall-clock (CI runners may be
// single-core); timings are printed for information only:
//
//   - every switch's equivalence report must be byte-identical between
//     a checker on the new engine and one backed by bdd.RefManager, and
//     the two engines must construct exactly the same number of nodes —
//     interning is exact and the exact cache tier never evicts, so node
//     IDs cannot depend on cache policy;
//   - the cache-tier hit counters must be deterministic: replaying the
//     same serial sweep on a fresh checker reproduces them bit-for-bit;
//   - full pipeline reports at workers 1, 2, and NumCPU must be
//     byte-identical to each other, and every switch's verdict must
//     match the serial map-backed baseline.
func runBDDSpeed(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	filters := make([]scout.ObjectID, 0, len(pol.Filters))
	for id := range pol.Filters {
		filters = append(filters, id)
	}
	sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })
	for _, id := range filters[:minInt(3, len(filters))] {
		if _, err := f.InjectObjectFault(scout.FilterRef(id), 1.0); err != nil {
			return err
		}
	}

	dep := f.Deployment()
	tcam := f.CollectAll()
	switches := make([]scout.ObjectID, 0, len(dep.BySwitch))
	for sw := range dep.BySwitch {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	fmt.Fprintf(w, "fabric: %d switches, 3 filter faults injected\n\n", topo.NumSwitches())

	// sweep runs the whole fabric's per-switch checks serially through
	// one checker, keeping both the live reports and their JSON bytes.
	type swReport struct {
		rep  *equiv.Report
		data []byte
	}
	sweep := func(c *equiv.Checker) (map[scout.ObjectID]swReport, time.Duration, error) {
		out := make(map[scout.ObjectID]swReport, len(switches))
		var dur time.Duration
		for _, sw := range switches {
			start := time.Now()
			rep, err := c.Check(dep.BySwitch[sw], tcam[sw])
			dur += time.Since(start)
			if err != nil {
				return nil, 0, err
			}
			data, err := json.Marshal(rep)
			if err != nil {
				return nil, 0, err
			}
			out[sw] = swReport{rep: rep, data: data}
		}
		return out, dur, nil
	}

	fast := equiv.NewChecker()
	ref := equiv.NewCheckerBacked(func() equiv.Backend { return bdd.NewRefManager(equiv.NumVars) })
	fastReps, fastDur, err := sweep(fast)
	if err != nil {
		return err
	}
	refReps, refDur, err := sweep(ref)
	if err != nil {
		return err
	}
	broken := 0
	for _, sw := range switches {
		if !bytes.Equal(fastReps[sw].data, refReps[sw].data) {
			return fmt.Errorf("switch %d: open-addressed report differs from map-backed reference", sw)
		}
		if !fastReps[sw].rep.Equivalent {
			broken++
		}
	}
	if fast.Size() != ref.Size() {
		return fmt.Errorf("node-construction counters diverged: open-addressed built %d nodes, reference %d",
			fast.Size(), ref.Size())
	}

	cs := fast.Stats().Cache
	lookups := cs.Hits() + cs.Misses
	fmt.Fprintf(w, "serial sweep: %d switches checked (%d inconsistent), %d BDD nodes on both engines\n",
		len(switches), broken, fast.Size())
	fmt.Fprintf(w, "op cache: %d L1 / %d L2 hits, %d misses (%.1f%% hit rate over %d lookups)\n",
		cs.L1Hits, cs.L2Hits, cs.Misses, 100*float64(cs.Hits())/float64(maxInt(1, int(lookups))), lookups)
	speedup := float64(refDur) / float64(maxInt(1, int(fastDur)))
	fmt.Fprintf(w, "cold-encode wall clock (informational, not asserted): open-addressed %v, map-backed %v (%.2fx)\n",
		fastDur.Round(time.Millisecond), refDur.Round(time.Millisecond), speedup)

	// Hit-counter identity: the sweep replayed on a fresh checker must
	// reproduce the tier counters exactly — cache behaviour is a pure
	// function of the operation stream, not of timing or memory layout.
	fast2 := equiv.NewChecker()
	if _, _, err := sweep(fast2); err != nil {
		return err
	}
	if got := fast2.Stats().Cache; got != cs {
		return fmt.Errorf("cache hit counters not deterministic across identical sweeps: %+v vs %+v", got, cs)
	}

	// Pipeline leg: full analyses on the new engine at 1, 2, and NumCPU
	// workers must agree byte-for-byte, and each switch's verdict must
	// match the serial reference baseline established above.
	st := scout.State{
		Deployment: dep,
		TCAM:       tcam,
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
	workerCounts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	fmt.Fprintf(w, "\n%-8s %13s %12s %12s %12s %12s\n",
		"workers", "total nodes", "L1 hits", "L2 hits", "base hits", "misses")
	var baseline []byte
	for _, workers := range workerCounts {
		rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).AnalyzeState(st)
		if err != nil {
			return err
		}
		rep.Elapsed = 0
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if baseline == nil {
			baseline = data
			for _, sr := range rep.Switches {
				want := refReps[sr.Switch].rep
				if sr.Equivalent != want.Equivalent {
					return fmt.Errorf("switch %d: pipeline verdict %v, map-backed baseline %v",
						sr.Switch, sr.Equivalent, want.Equivalent)
				}
				if !reflect.DeepEqual(sr.MissingRules, want.MissingRules) ||
					!reflect.DeepEqual(sr.ExtraRules, want.ExtraRules) {
					return fmt.Errorf("switch %d: pipeline missing/extra rules differ from map-backed baseline", sr.Switch)
				}
			}
		} else if !bytes.Equal(data, baseline) {
			return fmt.Errorf("workers=%d: report differs from workers=1 (identity violation)", workers)
		}
		es := rep.EncodeStats
		oc := es.OpCache
		fmt.Fprintf(w, "%-8d %13d %12d %12d %12d %12d\n",
			workers, es.TotalNodes(), oc.L1Hits, oc.L2Hits, oc.BaseHits, oc.Misses)
	}
	fmt.Fprintln(w, "\nreports byte-identical to the map-backed reference and across worker counts: true")
	fmt.Fprintln(w, "node-construction and cache-hit counters identical across engines and repeat sweeps: true")
	return nil
}

// runWarmStore measures durable warm state: a session persists its
// frozen encoding base and per-switch verdicts into a content-addressed
// store directory, and a fresh process (new store handle, new session)
// over the unchanged fabric restores them instead of rebuilding.
// Asserting on counters only (CI runners may be single-core):
//
//   - every restarted session loads exactly one base and rebuilds none,
//     re-checks zero switches, and compiles zero rule lists — the
//     whole BDD warm state came off disk — at workers 1, 2, and NumCPU;
//   - each restarted report is byte-identical to the warm in-process
//     report the original session produced;
//   - a restart over a mutated fabric re-checks exactly the dirty
//     switch and matches a cold analyzer on the same state, proving the
//     restored cache is live, not merely replayable.
func runWarmStore(cfg config, w io.Writer) error {
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	numSwitches := topo.NumSwitches()

	// Dirty a strict subset up front so the persisted verdicts carry
	// real missing-rule payloads, not just "equivalent" bits.
	faulted := minInt(3, numSwitches)
	for _, sw := range topo.Switches()[:faulted] {
		s, err := f.Switch(sw)
		if err != nil {
			return err
		}
		rules, err := f.CollectTCAM(sw)
		if err != nil {
			return err
		}
		if len(rules) == 0 || !s.TCAM().Remove(rules[0].Key()) {
			return fmt.Errorf("could not dirty switch %d", sw)
		}
	}
	fmt.Fprintf(w, "fabric: %d switches, %d faulted before the first run\n\n", numSwitches, faulted)

	dir, err := os.MkdirTemp("", "scout-warmstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	reportJSON := func(rep *scout.Report) ([]byte, error) {
		rep.Elapsed = 0
		return json.Marshal(rep)
	}

	// Original process: cold run builds and persists, a second run pins
	// the in-process warm report the restarts must reproduce.
	ws1, err := scout.OpenWarmStore(dir)
	if err != nil {
		return err
	}
	sess1, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: cfg.workers, WarmStore: ws1})
	if err != nil {
		return err
	}
	rep, err := sess1.Analyze()
	if err != nil {
		return err
	}
	coldElapsed := rep.Elapsed
	if st := sess1.Stats(); st.BaseRebuilds != 1 || st.Checked != numSwitches {
		return fmt.Errorf("cold run: %d base rebuilds, %d checked, want 1 and %d", st.BaseRebuilds, st.Checked, numSwitches)
	}
	rep, err = sess1.Analyze()
	if err != nil {
		return err
	}
	warmElapsed := rep.Elapsed
	if st := sess1.Stats(); st.Checked != numSwitches {
		return fmt.Errorf("in-process warm run re-checked %d switches beyond the cold run", st.Checked-numSwitches)
	}
	want, err := reportJSON(rep)
	if err != nil {
		return err
	}
	if err := sess1.Close(); err != nil {
		return err
	}
	if err := ws1.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var stateBytes int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			stateBytes += info.Size()
		}
	}
	fmt.Fprintf(w, "%-34s cold %v, warm %v, %d state files (%d KiB)\n",
		"original process:", coldElapsed.Round(time.Microsecond), warmElapsed.Round(time.Microsecond),
		len(entries), stateBytes/1024)

	// Restarted processes: fresh store handle and session per worker
	// count over the unchanged fabric.
	restart := func(workers int) (*scout.Session, *scout.WarmStore, error) {
		ws, err := scout.OpenWarmStore(dir)
		if err != nil {
			return nil, nil, err
		}
		sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: workers, WarmStore: ws})
		if err != nil {
			ws.Close()
			return nil, nil, err
		}
		return sess, ws, nil
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		sess, ws, err := restart(workers)
		if err != nil {
			return err
		}
		rep, err := sess.Analyze()
		if err != nil {
			return err
		}
		st := sess.Stats()
		label := fmt.Sprintf("restart (workers=%d):", workers)
		fmt.Fprintf(w, "%-34s base loads %d / rebuilds %d, %d replayed / %d checked, %v\n",
			label, st.BaseLoads, st.BaseRebuilds, st.Replayed, st.Checked, rep.Elapsed.Round(time.Microsecond))
		if st.BaseLoads != 1 || st.BaseRebuilds != 0 {
			return fmt.Errorf("%s loaded %d bases and rebuilt %d, want 1 and 0", label, st.BaseLoads, st.BaseRebuilds)
		}
		if st.Checked != 0 || st.Replayed != numSwitches {
			return fmt.Errorf("%s checked %d and replayed %d switches, want 0 and %d", label, st.Checked, st.Replayed, numSwitches)
		}
		if st.FoldMisses != 0 {
			return fmt.Errorf("%s compiled: %d fold misses, want none", label, st.FoldMisses)
		}
		got, err := reportJSON(rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s report differs from the warm in-process report (identity violation)", label)
		}
		if err := sess.Close(); err != nil {
			return err
		}
		if err := ws.Close(); err != nil {
			return err
		}
	}

	// Dirty restart: mutate one more switch, restart, and expect exactly
	// one re-check whose report matches a cold analyzer.
	dirtySw := topo.Switches()[numSwitches-1]
	s, err := f.Switch(dirtySw)
	if err != nil {
		return err
	}
	rules, err := f.CollectTCAM(dirtySw)
	if err != nil {
		return err
	}
	if len(rules) == 0 || !s.TCAM().Remove(rules[0].Key()) {
		return fmt.Errorf("could not dirty switch %d", dirtySw)
	}
	sess, ws, err := restart(cfg.workers)
	if err != nil {
		return err
	}
	rep, err = sess.Analyze()
	if err != nil {
		return err
	}
	st := sess.Stats()
	fmt.Fprintf(w, "%-34s %d replayed / %d checked, %v\n",
		"dirty restart (1 mutated switch):", st.Replayed, st.Checked, rep.Elapsed.Round(time.Microsecond))
	if st.Checked != 1 || st.Replayed != numSwitches-1 {
		return fmt.Errorf("dirty restart checked %d and replayed %d switches, want 1 and %d", st.Checked, st.Replayed, numSwitches-1)
	}
	got, err := reportJSON(rep)
	if err != nil {
		return err
	}
	coldRep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: cfg.workers}).Analyze(f)
	if err != nil {
		return err
	}
	coldWant, err := reportJSON(coldRep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, coldWant) {
		return fmt.Errorf("dirty restart report differs from cold analyzer (identity violation)")
	}
	if err := sess.Close(); err != nil {
		return err
	}
	if err := ws.Close(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nrestarted sessions loaded one base, rebuilt none, re-checked zero switches: true")
	fmt.Fprintln(w, "restarted sessions compiled zero rule lists: true")
	fmt.Fprintln(w, "restarted reports byte-identical to the warm in-process report at workers 1/2/NumCPU: true")
	fmt.Fprintln(w, "dirty restart re-checked exactly the mutated switch and matched a cold analysis: true")
	return nil
}

// runLocalizer gates the compiled-plan localization engine against the
// retained map-based reference. Asserting on counters and result
// identity only (CI runners may be single-core):
//
//   - over a corpus of workload fault overlays on one pristine
//     controller model, every SCOUT/SCORE-0.6/SCORE-1 Result is
//     identical (reflect.DeepEqual, including Steps, Iterations, and
//     ChangeLogPicks) between the engines, with exactly one plan
//     compile — every overlay run reuses the pristine model's cached
//     plan;
//   - full pipeline analyses with the plan engine and with RefLocalizer
//     produce byte-identical JSON reports at workers 1, 2, and NumCPU;
//   - a warm session over a faulty fabric compiles plans only on its
//     cold run (one controller plan plus one per broken switch) and
//     re-localizes warm runs entirely from cached plans; a session over
//     a clean fabric never compiles a plan at all.
func runLocalizer(cfg config, w io.Writer) error {
	env, err := eval.NewEnv(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	buildWorkers := cfg.workers
	if buildWorkers <= 0 {
		buildWorkers = runtime.NumCPU()
	}
	pristine := risk.BuildControllerModelParallel(env.Deployment,
		risk.ControllerModelOptions{IncludeSwitchRisk: true}, buildWorkers)
	planAlgos := eval.StandardAlgorithms()
	refAlgos := eval.RefStandardAlgorithms()
	candidates := env.Index.Objects()
	rng := rand.New(rand.NewSource(cfg.seed))
	before := localize.StatsSnapshot()
	scenarios := 0
	var planDur, refDur time.Duration
	for i := 0; i < 40; i++ {
		sc, err := workload.NewScenario(rng, candidates, 1+i%5, cfg.noise)
		if err != nil {
			return err
		}
		ov := risk.NewOverlay(pristine)
		workload.ApplyToControllerModel(ov, env.Deployment, env.Index, sc, rng)
		if ov.NumFailedEdges() == 0 {
			continue
		}
		scenarios++
		for k := range planAlgos {
			start := time.Now()
			got := planAlgos[k].Run(ov, sc.Changed)
			planDur += time.Since(start)
			start = time.Now()
			want := refAlgos[k].Run(ov, sc.Changed)
			refDur += time.Since(start)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("scenario %d, %s: compiled-plan Result differs from map-based reference", i, planAlgos[k].Name)
			}
		}
	}
	if scenarios == 0 {
		return fmt.Errorf("no overlay scenario produced failures")
	}
	planRuns := scenarios * len(planAlgos)
	d := localize.StatsSnapshot().Delta(before)
	if d.PlanCompiles != 1 {
		return fmt.Errorf("corpus: %d plan compiles over %d overlay runs, want exactly 1 (pristine model compiled once)", d.PlanCompiles, planRuns)
	}
	if int(d.PlanReuses) != planRuns-1 {
		return fmt.Errorf("corpus: %d plan reuses, want %d (every run after the first)", d.PlanReuses, planRuns-1)
	}
	fmt.Fprintf(w, "corpus: %d overlay scenarios x %d algorithms, Results identical on both engines\n",
		scenarios, len(planAlgos))
	fmt.Fprintf(w, "plan cache: %d compile / %d reuses over %d plan-engine runs\n",
		d.PlanCompiles, d.PlanReuses, planRuns)
	if d.FullScanEvals > 0 {
		fmt.Fprintf(w, "lazy greedy: %d heap re-evaluations for %d picks vs %d eager coverage evaluations (%.1fx fewer)\n",
			d.LazyEvals, d.LazyPicks, d.FullScanEvals,
			float64(d.FullScanEvals)/float64(maxInt(1, int(d.LazyEvals))))
	}
	speedup := float64(refDur) / float64(maxInt(1, int(planDur)))
	fmt.Fprintf(w, "engine wall clock (informational, not asserted): compiled-plan %v, map-based %v (%.2fx)\n\n",
		planDur.Round(time.Millisecond), refDur.Round(time.Millisecond), speedup)

	// Pipeline leg: full analyses through both engines at 1, 2, and
	// NumCPU workers must all marshal to the same bytes (LocalizeStats is
	// diagnostics-only and excluded from the JSON form). Capacity large
	// enough that deployment never overflows a TCAM: the injected faults
	// are then the only inconsistencies, and the control fabric below is
	// genuinely clean.
	pol, topo, err := scout.GenerateWorkload(eval.SimSpec(cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed, TCAMCapacity: 1 << 17})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	filters := make([]scout.ObjectID, 0, len(pol.Filters))
	for id := range pol.Filters {
		filters = append(filters, id)
	}
	sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })
	for _, id := range filters[:minInt(3, len(filters))] {
		if _, err := f.InjectObjectFault(scout.FilterRef(id), 1.0); err != nil {
			return err
		}
	}
	st := scout.State{
		Deployment: f.Deployment(),
		TCAM:       f.CollectAll(),
		Changes:    f.ChangeLog(),
		Faults:     f.FaultLog(),
		Now:        f.Now(),
	}
	workerCounts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	var baseline []byte
	for _, workers := range workerCounts {
		for _, refLoc := range []bool{false, true} {
			rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers, RefLocalizer: refLoc}).AnalyzeState(st)
			if err != nil {
				return err
			}
			if rep.Consistent {
				return fmt.Errorf("pipeline: faulty fabric analyzed consistent; localization never ran")
			}
			if !refLoc && (rep.LocalizeStats == nil || rep.LocalizeStats.PlanCompiles < 1) {
				return fmt.Errorf("pipeline: plan-engine run reported no plan compiles")
			}
			rep.Elapsed = 0
			data, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			if baseline == nil {
				baseline = data
			} else if !bytes.Equal(data, baseline) {
				return fmt.Errorf("workers=%d refLocalizer=%v: report differs from plan-engine workers=1 (identity violation)", workers, refLoc)
			}
		}
	}
	fmt.Fprintf(w, "pipeline: reports byte-identical across engines at workers %v\n", workerCounts)

	// Warm-session leg: plans compile on the cold run only.
	sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: cfg.workers})
	if err != nil {
		return err
	}
	coldRep, err := sess.Analyze()
	if err != nil {
		return err
	}
	broken := 0
	for _, sr := range coldRep.Switches {
		if !sr.Equivalent {
			broken++
		}
	}
	coldStats := sess.Stats()
	if coldStats.PlanCompiles != 1+broken {
		return fmt.Errorf("cold session run compiled %d plans, want %d (controller + %d broken switches)",
			coldStats.PlanCompiles, 1+broken, broken)
	}
	coldJSON, err := json.Marshal(coldRep)
	if err != nil {
		return err
	}
	warmRep, err := sess.Analyze()
	if err != nil {
		return err
	}
	warmStats := sess.Stats()
	if warmStats.PlanCompiles != coldStats.PlanCompiles {
		return fmt.Errorf("warm session run compiled %d plans, want 0",
			warmStats.PlanCompiles-coldStats.PlanCompiles)
	}
	if warmStats.PlanReuses < coldStats.PlanReuses+1+broken {
		return fmt.Errorf("warm session run reused %d plans, want at least %d (controller + broken switches)",
			warmStats.PlanReuses-coldStats.PlanReuses, 1+broken)
	}
	coldRep.Elapsed = 0
	warmRep.Elapsed = 0
	warmJSON, err := json.Marshal(warmRep)
	if err != nil {
		return err
	}
	coldJSON, err = json.Marshal(coldRep)
	if err != nil {
		return err
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		return fmt.Errorf("warm session report differs from cold (identity violation)")
	}
	fmt.Fprintf(w, "faulty-fabric session: cold run %d compiles (controller + %d broken switches), warm run 0 compiles / %d reuses\n",
		coldStats.PlanCompiles, broken, warmStats.PlanReuses-coldStats.PlanReuses)

	// Clean fabric: nothing to localize, so no plan is ever compiled.
	clean, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: cfg.seed, TCAMCapacity: 1 << 17})
	if err != nil {
		return err
	}
	if err := clean.Deploy(); err != nil {
		return err
	}
	cleanSess, err := scout.NewSession(clean, scout.AnalyzerOptions{Workers: cfg.workers})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		rep, err := cleanSess.Analyze()
		if err != nil {
			return err
		}
		if !rep.Consistent {
			return fmt.Errorf("clean fabric analyzed inconsistent")
		}
	}
	if st := cleanSess.Stats(); st.PlanCompiles != 0 || st.PlanReuses != 0 {
		return fmt.Errorf("clean-fabric session compiled %d / reused %d plans, want zero localization work",
			st.PlanCompiles, st.PlanReuses)
	}
	fmt.Fprintf(w, "clean-fabric session: 2 runs, zero plan compiles\n")

	fmt.Fprintln(w, "\ncorpus Results identical between engines with one plan compile, all reuses: true")
	fmt.Fprintln(w, "pipeline reports byte-identical across engines and worker counts: true")
	fmt.Fprintln(w, "warm session runs compile zero plans (faulty and clean fabrics): true")
	return nil
}
