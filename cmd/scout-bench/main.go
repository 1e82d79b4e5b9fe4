// Command scout-bench regenerates the paper's evaluation tables and
// figures (§VI). Each experiment prints the same rows/series the paper
// reports. Systems numbers (latency, allocations, cache counters) are
// the repository benchmark's job: go run ./bench.
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

// experiments are the valid -experiment names, in run order.
var experiments = []string{"fig3", "fig7a", "fig7b", "fig8", "fig9", "fig10", "ablation", "scale"}

// config carries the flag values so tests can drive run directly.
type config struct {
	experiment string
	scale      float64
	seed       int64
	runs       int
	maxFaults  int
	noise      int
	switchList string
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.experiment, "experiment", "all", strings.Join(experiments, "|")+"|all")
	flag.Float64Var(&cfg.scale, "scale", 0.25, "production-spec scale for simulation experiments (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 42, "experiment seed")
	flag.IntVar(&cfg.runs, "runs", 30, "repetitions per accuracy data point")
	flag.IntVar(&cfg.maxFaults, "faults", 10, "max simultaneous faults for accuracy experiments")
	flag.IntVar(&cfg.noise, "noise", 5, "healthy recently-changed objects per scenario")
	flag.StringVar(&cfg.switchList, "switches", "10,25,50,100,200", "comma-separated switch counts for -experiment scale")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scout-bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	if cfg.experiment != "all" && !slices.Contains(experiments, cfg.experiment) {
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", cfg.experiment, strings.Join(experiments, ", "))
	}
	switch {
	case !(cfg.scale > 0) || math.IsInf(cfg.scale, 1):
		return fmt.Errorf("-scale %v: want a positive finite factor", cfg.scale)
	case cfg.runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", cfg.runs)
	case cfg.maxFaults < 1:
		return fmt.Errorf("-faults %d: want at least 1", cfg.maxFaults)
	case cfg.noise < 0:
		return fmt.Errorf("-noise %d: want 0 or more", cfg.noise)
	}
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
			Runs:      min(cfg.runs, 10), // paper uses 10 runs on the testbed
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
