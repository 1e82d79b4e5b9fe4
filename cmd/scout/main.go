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
//
// The command runs one list of scenario steps on one fabric and one
// analysis session: the -scenario file's steps (the file deploys the
// fabric itself, so a fault may precede its deploy), or a lone deploy,
// then an inject step per -fault, then the analysis whose report it
// prints. An analyze step runs a round and prints its line; an expect
// block, the step's on its round or the file's on the final report, is
// checked there: "expect: ok", or "expect: mismatch:" with both answers
// and exit 1. A -fault adds faults the file does not state, so beside one
// the file's block is not checked, and the line says so.
// -watch adds an analyze step after the file's steps (the baseline round)
// and after each -fault that removed rules (a batch round: the events
// since the last round, and how long the first waited on the fabric's
// clock); the last round's report is the final one. Events decide when a
// round runs, not what it reads: a round collects every switch and
// re-checks the ones written since their last read.
//
// -state-dir names a durable warm-state directory: the session every
// analysis runs through adopts, on the round that loads it, each verdict
// of the file its deployment's fingerprint names whose lists that round
// collected again, drops the rest, and writes what a round re-checked
// before the round returns, so a restarted process replays an unchanged
// fabric without checking a switch.
// A new deployment also loads its frozen BDD base from the directory, or
// builds and writes it there; no check reads it, and without the flag none
// is built. A write that fails fails the command once the session closes.
// The directory holds one deployment: each write removes every other
// deployment's files.
//
// -json prints the final report as one JSON document, and nothing else,
// on stdout; the lines that narrate the run go to stderr instead. -v adds
// the controller risk view, the run's stage times (Report.Trace), SCOUT's
// and per-switch details to the text report, and is refused beside it.
package main

import (
	"encoding/json"
	"errors"
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
		policyPath = flag.String("policy", "", "policy JSON file (from policygen); empty generates -spec")
		specName   = flag.String("spec", "testbed", "spec to generate when -policy is empty: production, testbed, or small")
		seed       = flag.Int64("seed", 1, "fabric and generator seed")
		capacity   = flag.Int("tcam", 0, "per-switch TCAM capacity (0 = default)")
		scenPath   = flag.String("scenario", "", "JSON scenario file to replay, in place of the deploy, before any -fault; each analyze step's expect is checked against its round, and the file's expect block, if any, against the final report unless -fault is given")
		workers    = flag.Int("workers", 0, "parallel per-switch equivalence checks (0 = GOMAXPROCS, 1 = serial)")
		watch      = flag.Bool("watch", false, "analyze after the scenario (or the deploy) and after each -fault that removed rules, a round line each; the last round's report is the final one")
		stateDir   = flag.String("state-dir", "", "durable warm-state directory: replay the verdicts filed under the deployment's fingerprint; a round that re-checked a switch writes the whole verdict file, and a new deployment writes its BDD base if the directory holds none (no check reads it; without the flag none is built)")
		jsonOut    = flag.Bool("json", false, "print the analysis report alone on stdout, as JSON; progress lines go to stderr")
		verbose    = flag.Bool("v", false, "print the controller risk view, the run's and SCOUT's stage timings, and per-switch details")
	)
	var faults faultFlags
	flag.Var(&faults, "fault", "object fault to inject, e.g. filter:5003@1.0 (repeatable)")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := checkFlags(set, *capacity, *workers); err != nil {
		return err
	}
	injects := make([]*scout.Scenario, len(faults))
	for i, spec := range faults {
		st, err := parseFault(spec)
		if err != nil {
			return err
		}
		injects[i] = &scout.Scenario{Name: "-fault " + spec, Steps: []scout.ScenarioStep{st}}
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
	sc := &scout.Scenario{Steps: []scout.ScenarioStep{{Op: "deploy"}}}
	if *scenPath != "" {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			return err
		}
		if sc, err = scout.ParseScenario(data); err != nil {
			return err
		}
	}
	var warm *scout.WarmStore
	if *stateDir != "" {
		if warm, err = scout.OpenWarmStore(*stateDir); err != nil {
			return err
		}
	}
	sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: *workers, WarmStore: warm})
	if err != nil {
		return err
	}

	// analyze is every analyze step's: one round on the session, then the
	// step's expect, if any. The cursor, parked before the first step,
	// counts the events each round after the first answers.
	var (
		report *scout.Report
		rounds int
	)
	cursor := f.EventLog().TailCursor()
	analyze := func(exp *scout.ScenarioExpect) error {
		evs := cursor.Drain()
		label := "baseline: full collection"
		if rounds > 0 {
			var waited time.Duration
			if len(evs) > 0 {
				waited = f.Now().Sub(evs[0].Time)
			}
			label = fmt.Sprintf("batch %d: %d events (waited %v)", rounds, len(evs), waited)
		}
		rounds++
		var err error
		if report, err = sess.Analyze(); err != nil {
			return err
		}
		fmt.Fprintf(prose, "%s: re-checked %d/%d switches (%d replayed), %d missing rules, %v\n",
			label, report.Trace.Checked, len(report.Switches), report.Trace.Replayed,
			report.TotalMissing, report.Elapsed.Round(time.Microsecond))
		if exp == nil {
			return nil
		}
		return checkExpect(exp, report, prose)
	}

	res, err := sc.Run(f, analyze)
	if err != nil {
		return err
	}
	if *scenPath != "" {
		fmt.Fprintf(prose, "scenario %q: %d steps, %d rules removed, %d corrupted\n",
			sc.Name, res.StepsRun, res.RulesRemoved, res.RulesCorrupted)
	}
	if *watch {
		if err := analyze(nil); err != nil {
			return err
		}
	}
	for _, inject := range injects {
		res, err := inject.Run(f, nil)
		if err != nil {
			return err
		}
		st := inject.Steps[0]
		fmt.Fprintf(prose, "injected %s @%.2f: %d rules removed\n", st.Object, *st.Fraction, res.RulesRemoved)
		// A fault that removed no rules wrote no TCAM, so no event asks
		// for a round.
		if *watch && res.RulesRemoved > 0 {
			if err := analyze(nil); err != nil {
				return err
			}
		}
	}
	if !*watch {
		if report, err = sess.Analyze(); err != nil {
			return err
		}
		if warm != nil {
			tr := report.Trace
			fmt.Fprintf(prose, "warm state: base loaded %d / rebuilt %d, switches replayed %d / checked %d\n",
				tr.BaseLoads, tr.BaseRebuilds, tr.Replayed, tr.Checked)
		}
	}
	if err := sess.Close(); err != nil {
		return err
	}

	if err := emitReport(report, *jsonOut, *verbose); err != nil {
		return err
	}
	switch {
	case sc.Expect == nil:
	case len(injects) > 0:
		fmt.Fprintln(prose, "expect: not checked (-fault adds faults the scenario does not state)")
	default:
		if err := checkExpect(sc.Expect, report, prose); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

// checkExpect holds a report to an expect block and prints the verdict on
// w: ok, or a mismatch naming both answers, which fails the command.
func checkExpect(exp *scout.ScenarioExpect, report *scout.Report, w io.Writer) error {
	if err := exp.Check(report.Hypothesis, report.RootCauses); err != nil {
		fmt.Fprintf(w, "expect: mismatch: %v\n", err)
		return errors.New("the report is not the one its expect states")
	}
	fmt.Fprintln(w, "expect: ok")
	return nil
}

// emitReport renders the final analysis report.
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

// checkFlags refuses -v beside -json (-v adds details to the text report,
// which -json replaces), a negative -tcam, which would deploy at the
// default capacity, and a negative -workers, which would run at
// GOMAXPROCS. set holds the names of explicitly-set flags.
func checkFlags(set map[string]bool, capacity, workers int) error {
	switch {
	case set["v"] && set["json"]:
		return fmt.Errorf("-v adds details to the text report, which -json replaces; drop one of them")
	case capacity < 0:
		return fmt.Errorf("-tcam %d is negative", capacity)
	case workers < 0:
		return fmt.Errorf("-workers %d is negative", workers)
	}
	return nil
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

// parseFault reads a -fault argument as the scenario inject step it
// stands for, which that step's own validation checks.
func parseFault(s string) (scout.ScenarioStep, error) {
	ref, fracStr, found := strings.Cut(s, "@")
	fraction, err := 1.0, error(nil)
	if found {
		if fraction, err = strconv.ParseFloat(fracStr, 64); err != nil {
			return scout.ScenarioStep{}, fmt.Errorf("-fault %q: bad fraction: %w", s, err)
		}
	}
	st := scout.ScenarioStep{Op: "inject", Object: ref, Fraction: &fraction}
	if err := st.Validate(); err != nil {
		return st, fmt.Errorf("-fault %q: %w", s, err)
	}
	return st, nil
}
