// Command scout runs the end-to-end fault-localization pipeline on a
// policy: deploy onto the simulated fabric, inject the requested faults,
// then collect, check, localize, and correlate.
//
// Usage:
//
//	scout -policy policy.json -fault filter:5003@1.0 -fault epg:1004@0.4 -v
//	scout -spec testbed -scenario testdata/testbed-disconnect.json
//	scout -spec small -watch -fault filter:5003@1.0 -fault epg:1004@0.4
//
// Fault syntax: <kind>:<id>@<fraction> where fraction 1.0 is a full
// object fault and anything lower a partial fault.
// -scenario replays a JSON scenario file (an incident: a disconnect, a
// policy change, an eviction, …) in place of the deploy: the file's own
// deploy step deploys the fabric, so a fault may precede it. It runs
// before the first analysis in either mode and before any -fault is
// injected. When the file states an expect block, the final report is
// held to it: an "expect: ok" line follows the report, or "expect:
// mismatch:" with what the report gave and what the file wants, and the
// command exits 1. A -fault adds faults the file does not state, so beside
// one the line says the expect was not checked.
// -watch replaces the one-shot analysis with an event-driven daemon
// loop over a persistent session: a full baseline round, then the loop
// drains the fabric's event stream and, once -batch-window has passed
// since the first event not yet analyzed, runs one refresh round that
// collects every switch and re-verifies the ones written since their
// last read. A scenario's steps are part of the baseline round.
//
// -state-dir names a durable warm-state directory: the session every
// analysis runs through (a one-shot is its first run, -watch keeps it)
// adopts, on the round that loads it, each verdict of the file its
// deployment's fingerprint names whose lists that round collected again,
// drops the rest, and writes what a round re-checked before the round
// returns, so a restarted process replays an unchanged fabric without
// checking a switch.
// A new deployment also loads its frozen BDD base from the directory, or
// builds and writes it there; no check reads it, and without the flag none
// is built. A write that fails fails the command once the session closes. The directory
// bounds itself: each write keeps the few deployments used most recently
// and removes the files of the rest.
//
// -json prints the final report as one JSON document, and nothing else,
// on stdout; the lines that narrate the run go to stderr instead. -v adds
// the controller risk view, the run's stage times (Report.Trace), SCOUT's
// and per-switch details to the text report, and is refused beside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"scout"
)

// faultFlags accumulates repeated -fault arguments.
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, ",") }

func (f *faultFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed run: the error behind one
// "scout: " prefix, which package scout's own errors already carry.
func errorLine(err error) string { return "scout: " + strings.TrimPrefix(err.Error(), "scout: ") }

func run() error {
	var (
		policyPath  = flag.String("policy", "", "policy JSON file (from policygen); empty generates -spec")
		specName    = flag.String("spec", "testbed", "spec to generate when -policy is empty: production, testbed, or small")
		seed        = flag.Int64("seed", 1, "fabric and generator seed")
		capacity    = flag.Int("tcam", 0, "per-switch TCAM capacity (0 = default)")
		scenPath    = flag.String("scenario", "", "JSON scenario file to replay, in place of the deploy, before the first analysis and any -fault; its expect block, if any, is checked against the final report unless -fault is given")
		workers     = flag.Int("workers", 0, "parallel per-switch equivalence checks (0 = GOMAXPROCS, 1 = serial)")
		watch       = flag.Bool("watch", false, "drive an event-driven session daemon: full baseline, then an incremental refresh per window of events")
		batchWindow = flag.Duration("batch-window", 2*time.Second, "watch mode: refresh once the first event not yet analyzed has waited this long (requires -watch)")
		stateDir    = flag.String("state-dir", "", "durable warm-state directory: replay the verdicts filed under the deployment's fingerprint; a round that re-checked a switch writes the whole verdict file, and a new deployment writes its BDD base if the directory holds none (no check reads it; without the flag none is built)")
		jsonOut     = flag.Bool("json", false, "print the analysis report alone on stdout, as JSON; progress lines go to stderr")
		verbose     = flag.Bool("v", false, "print the controller risk view, the run's and SCOUT's stage timings, and per-switch details")
	)
	var faults faultFlags
	flag.Var(&faults, "fault", "object fault to inject, e.g. filter:5003@1.0 (repeatable)")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := checkWatchFlags(*watch, *batchWindow, set); err != nil {
		return err
	}
	if err := checkFabricFlags(*capacity, *workers); err != nil {
		return err
	}

	pol, topo, err := loadPolicy(*policyPath, *specName, *seed)
	if err != nil {
		return err
	}
	// Under -json, stdout carries the report alone; the lines that narrate
	// the run go to stderr.
	prose := io.Writer(os.Stdout)
	if *jsonOut {
		prose = os.Stderr
	}
	st := pol.Stats()
	fmt.Fprintf(prose, "policy %q: %d VRFs, %d EPGs, %d contracts, %d filters, %d EPG pairs\n",
		pol.Name, st.VRFs, st.EPGs, st.Contracts, st.Filters, st.EPGPairs)

	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: *seed, TCAMCapacity: *capacity})
	if err != nil {
		return err
	}
	// A scenario deploys the fabric itself; without one, the command does.
	var sc *scout.Scenario
	if *scenPath == "" {
		if err := f.Deploy(); err != nil {
			return err
		}
	} else {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			return err
		}
		if sc, err = scout.ParseScenario(data); err != nil {
			return err
		}
		res, err := sc.Run(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(prose, "scenario %q: %d steps, %d rules removed, %d corrupted\n",
			sc.Name, res.StepsRun, res.RulesRemoved, res.RulesCorrupted)
	}

	parsed := make([]objectFault, 0, len(faults))
	for _, spec := range faults {
		ref, fraction, err := parseFault(spec)
		if err != nil {
			return err
		}
		parsed = append(parsed, objectFault{ref: ref, fraction: fraction})
	}

	var warm *scout.WarmStore
	if *stateDir != "" {
		warm, err = scout.OpenWarmStore(*stateDir)
		if err != nil {
			return err
		}
	}
	aOpts := scout.AnalyzerOptions{Workers: *workers, WarmStore: warm}

	var report *scout.Report
	if *watch {
		report, err = runWatch(f, parsed, watchOptions{analyzer: aOpts, window: *batchWindow}, prose)
	} else {
		report, err = runOnce(f, parsed, aOpts, warm != nil, prose)
	}
	if err != nil {
		return err
	}
	if err := emitReport(report, *jsonOut, *verbose); err != nil {
		return err
	}
	return checkExpect(sc, len(parsed) > 0, report, prose)
}

// runOnce injects the faults and runs a session's first analysis, with or
// without durable state: with it (warm), the session restores the
// persisted base and verdicts before the run, writes what it built, and
// reports a failed write on Close.
func runOnce(f *scout.Fabric, faults []objectFault, opts scout.AnalyzerOptions, warm bool, w io.Writer) (*scout.Report, error) {
	for _, flt := range faults {
		if err := flt.inject(f, w); err != nil {
			return nil, err
		}
	}
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		return nil, err
	}
	report, err := sess.Analyze()
	if err != nil || !warm {
		return report, err
	}
	tr := report.Trace
	fmt.Fprintf(w, "warm state: base loaded %d / rebuilt %d, switches replayed %d / checked %d\n",
		tr.BaseLoads, tr.BaseRebuilds, tr.Replayed, tr.Checked)
	return report, sess.Close()
}

// checkExpect holds the report to the scenario's expect block, if it has
// one, and prints the verdict on w: ok, or a mismatch naming both answers,
// which fails the command. With faulted, -fault added faults the scenario
// does not state, so nothing is checked.
func checkExpect(sc *scout.Scenario, faulted bool, report *scout.Report, w io.Writer) error {
	switch {
	case sc == nil || sc.Expect == nil:
		return nil
	case faulted:
		fmt.Fprintln(w, "expect: not checked (-fault adds faults the scenario does not state)")
		return nil
	}
	if err := sc.Expect.Check(report.Hypothesis, report.RootCauses); err != nil {
		fmt.Fprintf(w, "expect: mismatch: %v\n", err)
		return fmt.Errorf("scenario %q: the report is not the one its expect states", sc.Name)
	}
	fmt.Fprintln(w, "expect: ok")
	return nil
}

// emitReport renders the final analysis report (shared by the one-shot and
// watch paths).
func emitReport(report *scout.Report, jsonOut, verbose bool) error {
	if jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(data, '\n'))
		return nil
	}
	fmt.Println()
	fmt.Print(report.Summary())
	if verbose {
		if report.ControllerView != nil {
			// Overlay-aware: warm session runs back the view with a
			// copy-on-write overlay whose counts include its own marks.
			fmt.Printf("\ncontroller risk view: %s\n", report.ControllerView)
		}
		tr, us := report.Trace, func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
		fmt.Printf("\nstages: collect %v, model %v, witness %v, check %v, localize %v, correlate %v, store %v\n",
			us(tr.Collect), us(tr.Model), us(tr.Witness), us(tr.Check), us(tr.Localize), us(tr.Correlate), us(tr.Store))
		if !report.Consistent {
			fmt.Printf("\nlocalization stages: hit-ratio-1 %v, change-log %v\n", us(tr.Stage1), us(tr.Stage2))
		}
		fmt.Println("\nper-switch details:")
		for _, sr := range report.Switches {
			status := "consistent"
			if !sr.Equivalent {
				status = fmt.Sprintf("%d missing rules, local hypothesis %v",
					len(sr.MissingRules), sr.Result.Hypothesis)
			}
			fmt.Printf("  switch %-4d %s\n", sr.Switch, status)
		}
	}
	fmt.Printf("\nanalysis wall-clock: %v\n", report.Elapsed)
	return nil
}

// objectFault is one parsed -fault argument.
type objectFault struct {
	ref      scout.ObjectRef
	fraction float64
}

// inject applies the fault to f and reports on w how many rules it removed.
func (flt objectFault) inject(f *scout.Fabric, w io.Writer) error {
	removed, err := f.InjectObjectFault(flt.ref, flt.fraction)
	if err == nil {
		fmt.Fprintf(w, "injected %s @%.2f: %d rules removed\n", flt.ref, flt.fraction, removed)
	}
	return err
}

// checkWatchFlags rejects a negative -batch-window (no wait can be
// negative), -batch-window without -watch (it does nothing without the
// daemon loop), and -v beside -json: -v adds per-switch details to the text
// report, which -json replaces, so the two together are refused in either
// mode rather than -v dropped. set holds the names of explicitly-set flags.
func checkWatchFlags(watch bool, window time.Duration, set map[string]bool) error {
	if window < 0 {
		return fmt.Errorf("-batch-window %v is negative", window)
	}
	if set["v"] && set["json"] {
		return fmt.Errorf("-v adds details to the text report, which -json replaces; drop one of them")
	}
	if !watch && set["batch-window"] {
		return fmt.Errorf("-batch-window only applies to the -watch daemon loop; add -watch or drop the flag")
	}
	return nil
}

// checkFabricFlags rejects a negative -tcam, which would deploy at the
// default capacity, and a negative -workers, which would run at
// GOMAXPROCS.
func checkFabricFlags(capacity, workers int) error {
	if capacity < 0 {
		return fmt.Errorf("-tcam %d is negative", capacity)
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d is negative", workers)
	}
	return nil
}

// watchOptions configures the -watch daemon loop.
type watchOptions struct {
	analyzer scout.AnalyzerOptions
	window   time.Duration
}

// runWatch drives the event-driven session daemon the way a production
// deployment would: a cursor is parked at the dataplane event stream's
// tail and a full baseline round anchors the session. After each
// injection the loop drains the cursor, and once opts.window has passed
// on the fabric's clock since the first event not yet analyzed, it runs
// one refresh round (Session.Analyze); at shutdown it runs one more if any
// event is still pending. Events decide when a round runs, not what it
// reads: the round collects every switch and re-checks the collected rules
// of the ones written since their last read, so a write no event names is
// still caught. It returns the last report produced (the baseline's when
// no events arrive), or the session's first failed warm-state write.
func runWatch(f *scout.Fabric, faults []objectFault, opts watchOptions, w io.Writer) (*scout.Report, error) {
	sess, err := scout.NewSession(f, opts.analyzer)
	if err != nil {
		return nil, err
	}
	// Park the cursor before the baseline collection so no mutation can
	// slip between the stream position and the collected state.
	cursor := f.EventLog().TailCursor()

	round := func(label string) (*scout.Report, error) {
		report, err := sess.Analyze()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s: re-checked %d/%d switches (%d replayed), %d missing rules, %v\n",
			label, report.Trace.Checked, len(report.Switches), report.Trace.Replayed,
			report.TotalMissing, report.Elapsed.Round(time.Microsecond))
		return report, nil
	}

	report, err := round("baseline: full collection")
	if err != nil {
		return nil, err
	}

	// pending counts the events drained since the last round, the first of
	// which arrived at first.
	var (
		rounds, pending int
		first           time.Time
	)
	refresh := func() error {
		rounds++
		label := fmt.Sprintf("batch %d: %d events (waited %v)", rounds, pending, f.Now().Sub(first))
		pending = 0
		report, err = round(label)
		return err
	}
	for _, flt := range faults {
		if err := flt.inject(f, w); err != nil {
			return nil, err
		}
		evs := cursor.Drain()
		if pending == 0 && len(evs) > 0 {
			first = evs[0].Time
		}
		pending += len(evs)
		if pending > 0 && f.Now().Sub(first) >= opts.window {
			if err := refresh(); err != nil {
				return nil, err
			}
		}
	}
	if pending > 0 {
		if err := refresh(); err != nil {
			return nil, err
		}
	}

	if err := sess.Close(); err != nil {
		return nil, err
	}
	return report, nil
}

func loadPolicy(path, specName string, seed int64) (*scout.Policy, *scout.Topology, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		pol, err := scout.PolicyFromJSON(data)
		if err != nil {
			return nil, nil, err
		}
		return pol, scout.TopologyFromPolicy(pol), nil
	}
	spec, err := scout.WorkloadSpecByName(specName)
	if err != nil {
		return nil, nil, err
	}
	return scout.GenerateWorkload(spec, seed)
}

func parseFault(s string) (scout.ObjectRef, float64, error) {
	refStr, fracStr, found := strings.Cut(s, "@")
	fraction := 1.0
	if found {
		var err error
		fraction, err = strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return scout.ObjectRef{}, 0, fmt.Errorf("-fault %q: bad fraction: %w", s, err)
		}
		if !(fraction > 0 && fraction <= 1) { // NaN fails every comparison
			return scout.ObjectRef{}, 0, fmt.Errorf("-fault %q: fraction %v out of (0,1]", s, fraction)
		}
	}
	ref, err := scout.ParseObjectRef(refStr)
	if err != nil {
		return scout.ObjectRef{}, 0, fmt.Errorf("-fault %q: %w", s, err)
	}
	return ref, fraction, nil
}
