// Command scout runs the end-to-end fault-localization pipeline on a
// policy: deploy onto the simulated fabric, inject the requested faults,
// then collect, check, localize, and correlate.
//
// Usage:
//
//	scout -policy policy.json -fault filter:5003@1.0 -fault epg:1004@0.4 \
//	      -disconnect 3 -v
//	scout -spec testbed -fault filter:5002@1.0
//	scout -spec small -watch -fault filter:5003@1.0 -fault epg:1004@0.4
//
// Fault syntax: <kind>:<id>@<fraction> where fraction 1.0 is a full
// object fault and anything lower a partial fault. -disconnect takes a
// switch ID to render unreachable before a final no-op policy touch.
// -watch replaces the one-shot analysis with an event-driven daemon
// loop over a persistent session: a full baseline round, then the loop
// drains the fabric's event stream and, once -batch-window has passed
// since the first event not yet analyzed, runs one refresh round that
// collects every switch and re-verifies the ones written since their
// last read.
// -scenario replays a JSON scenario file instead of -fault and
// -disconnect, and refuses either beside it; it is a one-shot replay and
// cannot be combined with -watch.
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
// on stdout; the lines that narrate the run go to stderr instead. -v,
// which adds to the text report, is refused beside it.
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
		fmt.Fprintln(os.Stderr, "scout:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		policyPath  = flag.String("policy", "", "policy JSON file (from policygen); empty generates -spec")
		specName    = flag.String("spec", "testbed", "spec to generate when -policy is empty: production, testbed, or small")
		seed        = flag.Int64("seed", 1, "fabric and generator seed")
		capacity    = flag.Int("tcam", 0, "per-switch TCAM capacity (0 = default)")
		disconnect  = flag.Int("disconnect", -1, "switch ID to disconnect before analysis")
		scenPath    = flag.String("scenario", "", "JSON scenario file to replay instead of -fault/-disconnect")
		workers     = flag.Int("workers", 0, "parallel per-switch equivalence checks (0 = GOMAXPROCS, 1 = serial)")
		watch       = flag.Bool("watch", false, "drive an event-driven session daemon: full baseline, then an incremental refresh per window of events")
		batchWindow = flag.Duration("batch-window", 2*time.Second, "watch mode: refresh once the first event not yet analyzed has waited this long (requires -watch)")
		stateDir    = flag.String("state-dir", "", "durable warm-state directory: replay the verdicts filed under the deployment's fingerprint; a round that re-checked a switch writes the whole verdict file, and a new deployment writes its BDD base if the directory holds none (no check reads it; without the flag none is built)")
		jsonOut     = flag.Bool("json", false, "print the analysis report alone on stdout, as JSON; progress lines go to stderr")
		verbose     = flag.Bool("v", false, "print the controller risk view, SCOUT's stage timings and per-switch details")
	)
	var faults faultFlags
	flag.Var(&faults, "fault", "object fault to inject, e.g. filter:5003@1.0 (repeatable)")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := checkWatchFlags(*watch, *batchWindow, set); err != nil {
		return err
	}
	if err := checkFabricFlags(*capacity, *disconnect, *workers, set); err != nil {
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
	if err := f.Deploy(); err != nil {
		return err
	}

	if *scenPath != "" {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			return err
		}
		sc, err := scout.ParseScenario(data)
		if err != nil {
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

	// The disconnect (and its visibility-granting policy touch) applies
	// in both modes: one-shot analyses see it alongside the faults, watch
	// sessions fold it into the baseline round. Fault injection order is
	// immaterial — faults bypass the agent views, so the redeploy here
	// never restores them.
	if *disconnect >= 0 {
		sw := scout.ObjectID(*disconnect)
		if err := f.Disconnect(sw); err != nil {
			return err
		}
		// A no-op-ish policy touch so the outage has visible impact: add
		// a probe filter to the first bound contract.
		if len(pol.Bindings) > 0 {
			if err := f.AddFilter(scout.Filter{ID: 64999, Name: "probe", Entries: []scout.FilterEntry{
				scout.PortEntry(scout.ProtoTCP, 64999),
			}}); err != nil {
				return err
			}
			if err := f.AddFilterToContract(pol.Bindings[0].Contract, 64999); err != nil {
				return err
			}
		}
		fmt.Fprintf(prose, "disconnected switch %d during a policy change\n", sw)
	}

	var warm *scout.WarmStore
	if *stateDir != "" {
		warm, err = scout.OpenWarmStore(*stateDir)
		if err != nil {
			return err
		}
	}
	aOpts := scout.AnalyzerOptions{Workers: *workers, WarmStore: warm}

	if *watch {
		report, err := runWatch(f, parsed, watchOptions{analyzer: aOpts, window: *batchWindow}, prose)
		if err != nil {
			return err
		}
		return emitReport(report, *jsonOut, *verbose)
	}

	for _, flt := range parsed {
		if err := flt.inject(f, prose); err != nil {
			return err
		}
	}

	// A one-shot is a session's first run, with or without durable state:
	// with it, the session restores the persisted base and verdicts before
	// the run, writes what it built, and reports a failed write on Close.
	sess, err := scout.NewSession(f, aOpts)
	if err != nil {
		return err
	}
	report, err := sess.Analyze()
	if err != nil {
		return err
	}
	if warm != nil {
		st := sess.Stats()
		fmt.Fprintf(prose, "warm state: base loaded %d / rebuilt %d, switches replayed %d / checked %d\n",
			st.BaseLoads, st.BaseRebuilds, st.Replayed, st.Checked)
		if err := sess.Close(); err != nil {
			return err
		}
	}
	return emitReport(report, *jsonOut, *verbose)
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
		if ls := report.LocalizeStats; ls != nil {
			fmt.Printf("\nlocalization stages: hit-ratio-1 %v, change-log %v\n",
				ls.Stage1.Round(time.Microsecond), ls.Stage2.Round(time.Microsecond))
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

// checkWatchFlags rejects flag combinations that mix the one-shot and
// daemon modes: -scenario is a one-shot replay (its effects would fold
// invisibly into the watch baseline), and -batch-window does nothing
// without the daemon loop. -scenario also replaces -fault and -disconnect,
// so either beside it is refused rather than applied on top of the
// replay. A negative window is refused: no wait can be negative. -v adds
// per-switch details to the text report, which -json replaces, so the two
// together are refused in either mode rather than -v dropped. set holds
// the names of explicitly-set flags.
func checkWatchFlags(watch bool, window time.Duration, set map[string]bool) error {
	if window < 0 {
		return fmt.Errorf("-batch-window %v is negative", window)
	}
	if set["v"] && set["json"] {
		return fmt.Errorf("-v adds details to the text report, which -json replaces; drop one of them")
	}
	if watch {
		if set["scenario"] {
			return fmt.Errorf("-scenario is a one-shot replay and cannot drive the -watch event loop; run it without -watch")
		}
		return nil
	}
	for _, name := range []string{"fault", "disconnect"} {
		if set["scenario"] && set[name] {
			return fmt.Errorf("-scenario replays instead of -%s; write the step into the scenario or drop -scenario", name)
		}
	}
	if set["batch-window"] {
		return fmt.Errorf("-batch-window only applies to the -watch daemon loop; add -watch or drop the flag")
	}
	return nil
}

// checkFabricFlags rejects a negative -tcam, which would deploy at the
// default capacity, an explicitly-set negative -disconnect, which would
// disconnect nothing, and a negative -workers, which would run at
// GOMAXPROCS. set holds the names of explicitly-set flags.
func checkFabricFlags(capacity, disconnect, workers int, set map[string]bool) error {
	if capacity < 0 {
		return fmt.Errorf("-tcam %d is negative", capacity)
	}
	if set["disconnect"] && disconnect < 0 {
		return fmt.Errorf("-disconnect %d is negative", disconnect)
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
		before := sess.Stats()
		report, err := sess.Analyze()
		if err != nil {
			return nil, err
		}
		after := sess.Stats()
		fmt.Fprintf(w, "%s: re-checked %d/%d switches (%d replayed), %d missing rules, %v\n",
			label, after.Checked-before.Checked, len(report.Switches), after.Replayed-before.Replayed,
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
