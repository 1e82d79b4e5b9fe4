// Command scout-bench regenerates the paper's evaluation tables and
// figures (§VI). Each experiment is one row of the experiments table and
// prints the same rows/series the paper reports. Systems numbers (latency,
// allocations, cache counters) are the repository benchmark's job: go run
// ./bench.
//
// Usage:
//
//	scout-bench -experiment all
//	scout-bench -experiment fig8 -scale 1.0 -runs 30
//	scout-bench -experiment scale -switches 10,50,100,200,500
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"scout/internal/eval"
	"scout/internal/workload"
)

// config carries the flag values so tests can drive run directly.
type config struct {
	experiment string
	scale      float64
	seed       int64
	runs       int
	maxFaults  int
	switchList string
	switches   []int // switchList parsed, when scale runs
}

// accuracy returns the options of a simulated accuracy figure comparing
// algs.
func (c config) accuracy(algs []eval.Algorithm) eval.AccuracyOptions {
	return eval.AccuracyOptions{MaxFaults: c.maxFaults, Runs: c.runs, Seed: c.seed, Algorithms: algs}
}

// table is what an experiment produces: an eval result.
type table interface{ Render() string }

// experiment is one §VI table. A simulated one runs on the production-like
// environment at -scale, which run builds once, before the first of them;
// the others build their own.
type experiment struct {
	name, header string
	sim          bool
	check        func(*config) error // vets, before anything runs, flags only this experiment reads
	run          func(c config, sim *eval.Env) (table, error)
}

// experiments holds one row per -experiment name, in run order; the flag
// help, the unknown-name error and TestFigures read their names from it.
var experiments = []experiment{
	{name: "fig3", header: "Figure 3: EPG pairs per object (CDF checkpoints)", sim: true,
		run: func(_ config, env *eval.Env) (table, error) { return eval.Figure3(env), nil }},
	{name: "fig7a", header: "Figure 7(a): suspect-set reduction γ, testbed (200 faults)",
		run: func(c config, _ *eval.Env) (table, error) {
			tb, err := eval.NewEnv(workload.TestbedSpec(), c.seed)
			if err != nil {
				return nil, err
			}
			return eval.SuspectSetReduction(tb, eval.GammaOptions{Faults: 200, Seed: c.seed,
				Buckets: [][2]int{{1, 10}, {10, 20}, {20, 40}, {40, 60}}})
		}},
	{name: "fig7b", header: "Figure 7(b): suspect-set reduction γ, simulation (1500 faults)", sim: true,
		run: func(c config, env *eval.Env) (table, error) {
			return eval.SuspectSetReduction(env, eval.GammaOptions{Faults: 1500, Seed: c.seed,
				Buckets: [][2]int{{1, 10}, {10, 50}, {50, 100}, {100, 500}, {500, 1000}}})
		}},
	{name: "fig8", header: "Figure 8: precision/recall on the switch risk model", sim: true,
		run: func(c config, env *eval.Env) (table, error) {
			return eval.SwitchModelAccuracy(env, c.accuracy(eval.StandardAlgorithms()))
		}},
	{name: "fig9", header: "Figure 9: precision/recall on the controller risk model", sim: true,
		run: func(c config, env *eval.Env) (table, error) {
			return eval.ControllerModelAccuracy(env, c.accuracy(eval.StandardAlgorithms()))
		}},
	{name: "fig10", header: "Figure 10: testbed end-to-end, SCOUT vs SCORE-1",
		run: func(c config, _ *eval.Env) (table, error) {
			// The paper runs the testbed 10 times.
			return eval.TestbedAccuracy(workload.TestbedSpec(), eval.TestbedOptions{
				MaxFaults: c.maxFaults, Runs: min(c.runs, 10), Seed: c.seed})
		}},
	{name: "ablation", header: "Ablation: SCOUT with vs without the change-log stage", sim: true,
		run: func(c config, env *eval.Env) (table, error) {
			return eval.ControllerModelAccuracy(env, c.accuracy(append(eval.StandardAlgorithms(), eval.ScoutNoChangeLog())))
		}},
	{name: "scale", header: "Scalability: SCOUT runtime vs switch count (§VI-B)",
		check: func(c *config) error {
			var err error
			if c.switches, err = parseInts(c.switchList); err != nil {
				return fmt.Errorf("-switches %s: %w", c.switchList, err)
			}
			if slices.Min(c.switches) < 1 {
				return fmt.Errorf("-switches %s: want counts of at least 1", c.switchList)
			}
			return nil
		},
		run: func(c config, _ *eval.Env) (table, error) { return eval.Scalability(c.switches, 5, c.seed) }},
}

// experimentNames returns the experiments' names, in run order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.experiment, "experiment", "all", strings.Join(experimentNames(), "|")+"|all")
	flag.Float64Var(&cfg.scale, "scale", 0.25, "production-spec scale for simulation experiments (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 42, "experiment seed")
	flag.IntVar(&cfg.runs, "runs", 30, "repetitions per accuracy data point")
	flag.IntVar(&cfg.maxFaults, "faults", 10, "max simultaneous faults for accuracy experiments")
	flag.StringVar(&cfg.switchList, "switches", "10,25,50,100,200", "comma-separated switch counts for -experiment scale")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scout-bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	var selected []experiment
	for _, e := range experiments {
		if cfg.experiment == "all" || cfg.experiment == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", cfg.experiment, strings.Join(experimentNames(), ", "))
	}
	// The production spec's largest count is its EPG pairs; SimSpec rounds
	// each scaled count to an int.
	pairs := workload.ProductionSpec().TargetPairs
	switch {
	case !(cfg.scale > 0) || math.IsInf(cfg.scale, 1):
		return fmt.Errorf("-scale %v: want a positive finite factor", cfg.scale)
	case math.Round(float64(pairs)*cfg.scale) >= math.MaxInt:
		return fmt.Errorf("-scale %v: scaling the production spec's %d EPG pairs overflows an int", cfg.scale, pairs)
	case cfg.runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", cfg.runs)
	case cfg.maxFaults < 1:
		return fmt.Errorf("-faults %d: want at least 1", cfg.maxFaults)
	}
	for _, e := range selected {
		if e.check != nil {
			if err := e.check(&cfg); err != nil {
				return err
			}
		}
	}

	var sim *eval.Env
	for _, e := range selected {
		if e.sim && sim == nil {
			start := time.Now()
			var err error
			if sim, err = eval.NewEnv(eval.SimSpec(cfg.scale), cfg.seed); err != nil {
				return err
			}
			st := sim.Policy.Stats()
			fmt.Fprintf(w, "[workload] production-like scale=%.2f: %d EPGs, %d contracts, %d filters, %d pairs (%v)\n\n",
				cfg.scale, st.EPGs, st.Contracts, st.Filters, st.EPGPairs, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintf(w, "== %s ==\n", e.header)
		res, err := e.run(cfg, sim)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
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
