// Command bench is the repository's benchmark: the five journeys a SCOUT
// user takes (one-shot analysis, clean periodic sweep, sweep under
// rolling churn, event storm, process restart), measured end to end
// through the public scout API and, in a separate traced pass, layer by
// layer from outside each internal package. BENCHMARK.json at the repo
// root names the metrics and fixes their bounds; README.md explains them.
//
// Run it from the repository root:
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -workload warm-clean -trace 0    one workload, end-to-end metrics only
//	go run ./bench -runs 10 -out new.json           ten seeds a workload, results to a file
//	go run ./bench -compare old.json new.json       apply BENCHMARK.json's bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	specPath = "BENCHMARK.json"
	// outDir holds span dumps and, while a run lasts, temp state dirs.
	outDir = "bench/out"
	// benchProcs is the GOMAXPROCS every measuring process pins.
	benchProcs = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 42, "seed for the fault set, fabric RNG and mutation schedule")
	seconds := fs.Int("seconds", 0, "accepted because the benchmark driver passes it; must equal BENCHMARK.json run_seconds, which the fixed op counts are sized for")
	trace := fs.String("trace", "", "0: untraced run only (end-to-end metrics); 1: traced run only (per-layer metrics); default both")
	out := fs.String("out", "", "write every run's record and the environment to this JSON file")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	child := fs.Bool("child", false, "internal: measure in this process and print the record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files, old and new"))
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), specPath, stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	spec, err := loadBenchmarkSpec(specPath)
	if err != nil {
		return fail(fmt.Errorf("%w (run from the repository root)", err))
	}
	if *seconds != 0 && *seconds != spec.RunSeconds {
		return fail(fmt.Errorf("-seconds %d: the op counts are fixed and sized for run_seconds %d", *seconds, spec.RunSeconds))
	}
	var traces []bool
	switch *trace {
	case "":
		traces = []bool{false, true}
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	default:
		return fail(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}
	names := workloadNames
	if *workloadFlag != "" {
		if _, ok := opCounts[*workloadFlag]; !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workloadFlag}
	}

	if *child {
		runtime.GOMAXPROCS(benchProcs)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		p := params{spec: benchSpec(), workers: benchProcs, setupReps: 3, stateDir: outDir}
		rec, err := measure(names[0], p, opCounts[names[0]], *seed, traces[0], outDir)
		if err != nil {
			return fail(fmt.Errorf("%s seed %d: %w", names[0], *seed, err))
		}
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			return fail(err)
		}
		return 0
	}

	// Each run is its own child process, so peak RSS and GC state do not
	// leak from one workload into the next. A child that exits non-zero
	// fails the whole run.
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	file := resultFile{Schema: 1}
	var line string // the last run's result object
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			for _, traced := range traces {
				rec, err := runChild(exe, name, *seed+int64(i), traced, stderr)
				if err != nil {
					return fail(err)
				}
				printRecord(stdout, rec)
				listed := spec.EndToEnd
				if traced {
					listed = spec.PerLayer
				}
				if line, err = contractLine(rec, listed); err != nil {
					return fail(err)
				}
				file.Runs = append(file.Runs, *rec)
			}
		}
	}
	if *out != "" {
		file.Env = describeEnv(*seed, *runs)
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	code := 0
	for i := range file.Runs {
		if !file.Runs[i].Correct {
			fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d ops failed their output check\n",
				file.Runs[i].Workload, file.Runs[i].Seed, file.Runs[i].Failed, file.Runs[i].Attempted)
			code = 1
		}
	}
	if len(file.Runs) == 1 {
		// One workload, one mode: the last line is the benchmark
		// contract's result object.
		fmt.Fprintln(stdout, line)
	}
	return code
}

// runChild measures one workload in a child process and decodes the
// record it prints.
func runChild(exe, name string, seed int64, traced bool, stderr io.Writer) (*runRecord, error) {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", traceArg)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child for %s seed %d (trace %s): %w", name, seed, traceArg, err)
	}
	var rec runRecord
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("child for %s seed %d printed no record: %w", name, seed, err)
	}
	return &rec, nil
}

func describeEnv(seed int64, runs int) environment {
	env := environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: benchProcs,
		Commit: "unknown", Seed: seed, Runs: runs,
		Ops: map[string]int{}, Warmup: map[string]int{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	for _, name := range workloadNames {
		env.Ops[name], env.Warmup[name] = opCounts[name].ops, opCounts[name].warmup
	}
	return env
}

// twinDiverges names the workloads whose ops change the fabric. There the
// session's checker and the staged twin's are separate BDD managers that
// grow and compact on different ops, so the residual and the overhead
// ratio measure that divergence more than Session glue or tracing cost.
var twinDiverges = map[string]bool{"warm-churn": true, "event-storm": true}

// printRecord lists every metric of a run by name, with unit and sample
// count, then the span table of a traced run.
func printRecord(w io.Writer, rec *runRecord) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced, Workers: 1"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d ops=%d warmup=%d input_digest=%s attempted=%d failed=%d\n",
		rec.Workload, mode, rec.Seed, rec.Ops, rec.Warmup, rec.InputDigest, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if twinDiverges[rec.Workload] && (name == "scout.unattributed_ms" || name == "scout.trace_overhead_ratio") {
			fmt.Fprint(w, "  (informational on this workload: the staged twin's checker has its own history)")
		}
		fmt.Fprintln(w)
	}
	if len(rec.Spans) > 0 {
		fmt.Fprintf(w, "   %-34s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ms/op")
		for _, row := range rec.Spans {
			fmt.Fprintf(w, "   %-34s %8d %12.3f %12.3f %12.4f\n", row.Name, row.Count, row.TotalMS, row.SelfMS, row.PerOpMS)
		}
	}
}
