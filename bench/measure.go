package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"scout"
)

// stallFactor marks an op as a stall when it takes more than this many
// times the median op.
const stallFactor = 5

// measure runs one workload for one seed in this process and returns its
// record. Untraced, it reports the end-to-end metrics at the configured
// worker count over count.ops ops; traced, the per-layer metrics at
// Workers: 1 over a quarter of them. A failed op is counted, not fatal; an error return
// means the run itself could not be carried out.
func measure(name string, p params, count opCount, seed int64, traced bool, traceDir string) (*runRecord, error) {
	rec := &runRecord{Workload: name, Traced: traced, Seed: seed, Warmup: count.warmup, Metrics: metrics{}}
	reps, totalOps := p.setupReps, count.warmup+count.ops
	if traced {
		// Layer counts must repeat exactly, which two check workers racing
		// for switches do not allow. End-to-end numbers never come from here.
		p.workers = 1
		count.ops = (count.ops + 3) / 4
		reps, totalOps = 1, count.warmup+2*count.ops // a plain phase, then a traced one
	}
	rec.Ops = count.ops

	var r *runner
	var err error
	setups := make([]float64, reps)
	for i := range setups {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC()
		}
		t0 := nowNS()
		if r, err = setUp(name, p, seed, totalOps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = float64(nowNS()-t0) / 1e9
	}
	defer r.close()
	rec.InputDigest = r.env.digest

	// The reference report: what every op of a static workload must
	// reproduce, and what the traced run's probes replay. An untraced
	// state-changing run compares against later states only (see settle).
	var ref *scout.Report
	if r.static || traced {
		if ref, err = scout.NewAnalyzer(p.analyzerOptions()).AnalyzeState(r.env.state()); err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		if r.refJSON, err = reportJSON(ref); err != nil {
			return nil, err
		}
	}

	if traced {
		err = measureTraced(r, ref, rec, count, traceDir)
	} else {
		err = measureUntraced(r, rec, count)
		rec.Metrics.set("setup_s", median(setups), "s", len(setups))
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// warmUp runs the untimed ops that let caches fill. A failing warm-up op
// fails the run: nothing measured after it would mean anything.
func warmUp(r *runner, n int) error {
	for i := 0; i < n; i++ {
		if s, _ := r.runOp(false); s.failure != "" {
			return fmt.Errorf("warm-up op %d: %s", i, s.failure)
		}
	}
	return nil
}

func measureUntraced(r *runner, rec *runRecord, count opCount) error {
	if err := warmUp(r, count.warmup); err != nil {
		return err
	}
	samples := make([]opSample, count.ops)
	for i := range samples {
		samples[i], _ = r.runOp(i%coldCheckEvery == 0)
	}
	// Peak RSS is read before the deferred cold comparisons run, so it is
	// the journey's own high-water mark (set-up included), not theirs.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.settle(samples)
	rec.count(samples)
	sum := summarize(samples)
	m := rec.Metrics
	m.set("passed_ops_share", 1-ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio", rec.Attempted)
	m.set("hypothesis_recall", sum.recall, "ratio", len(samples))
	m.set("hypothesis_precision", sum.precision, "ratio", len(samples))
	// The issue's latency and memory metrics (report_p50_ms,
	// report_mean_ms, peak_rss_mb, alloc_mb_per_op) do not repeat within
	// their bounds on this machine (see the README) and so are layer metrics:
	// BENCHMARK.json lists them per layer, where the traced run reports
	// them at Workers: 1. These are the same numbers at the real worker
	// count, kept in -out files for -compare to list.
	m.set("scout.op_p50_ms", sum.p50, "ms", len(samples))
	m.set("scout.op_mean_ms", sum.mean, "ms", len(samples))
	m.set("scout.op_max_ms", maxOf(sum.latMS), "ms", len(samples))
	m.set("scout.stall_ops", float64(countOver(sum.latMS, stallFactor*sum.p50)), "count", len(samples))
	m.set("scout.peak_rss_mb", rss, "MB", 0)
	m.set("scout.alloc_mb_per_op", sum.allocMB, "MB", len(samples))
	st := r.stats()
	m.set("scout.delta_nodes_end", float64(st.DeltaNodes), "count", 0)
	m.set("scout.checker_compactions", float64(st.CheckerCompactions), "count", 0)
	return nil
}

// summary condenses the op samples of one pass. Accuracy is averaged over
// the ops that produced a report, JSON cost over the ops whose JSON the
// output check needed.
type summary struct {
	latMS              []float64
	p50, mean, allocMB float64
	mallocs, gcPauseMS float64
	recall, precision  float64
	jsonMS, jsonBytes  float64
	jsonN              int
}

func summarize(samples []opSample) summary {
	var s summary
	allocs := make([]float64, len(samples))
	scored := 0.0
	for i, x := range samples {
		s.latMS = append(s.latMS, ms(x.latencyNS))
		allocs[i] = float64(x.allocBytes) / (1 << 20)
		s.mallocs += float64(x.mallocs)
		s.gcPauseMS += ms(int64(x.gcPauseNS))
		if x.jsonBytes > 0 {
			s.jsonMS += ms(x.jsonNS)
			s.jsonBytes += float64(x.jsonBytes)
			s.jsonN++
		}
		if x.scored {
			s.recall += x.recall
			s.precision += x.precision
			scored++
		}
	}
	n := float64(len(samples))
	s.p50, s.mean = median(s.latMS), mean(s.latMS)
	s.allocMB = mean(allocs)
	s.mallocs, s.gcPauseMS = s.mallocs/n, s.gcPauseMS/n
	if scored > 0 {
		s.recall, s.precision = s.recall/scored, s.precision/scored
	}
	if s.jsonN > 0 {
		s.jsonMS, s.jsonBytes = s.jsonMS/float64(s.jsonN), s.jsonBytes/float64(s.jsonN)
	}
	return s
}

// count adds the samples to the record's attempted and failed totals and
// keeps the first few failures' text.
func (rec *runRecord) count(samples []opSample) {
	for i, x := range samples {
		rec.Attempted++
		if x.failure != "" {
			rec.Failed++
			if len(rec.Failures) < 8 {
				rec.Failures = append(rec.Failures, fmt.Sprintf("op %d: %s", i, x.failure))
			}
		}
	}
}

// measureTraced runs the journey twice over at Workers: 1. First alone
// (plain ops), so its memory and op times are its own. Then traced: each
// public op is recorded as a span and followed by the staged replay of
// the same inputs beneath it, after the layer probes have run on the
// state the first phase left. The ratio of the two phases' median op
// times is what tracing costs the op it watches.
func measureTraced(r *runner, ref *scout.Report, rec *runRecord, count opCount, traceDir string) error {
	m := rec.Metrics
	if err := warmUp(r, count.warmup); err != nil {
		return err
	}
	plain := make([]opSample, count.ops)
	for i := range plain {
		plain[i], _ = r.runOp(false)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("scout.peak_rss_mb", rss, "MB", 0)

	if !r.static { // the probes need a cold report of the state as it is now
		if ref, err = scout.NewAnalyzer(r.p.analyzerOptions()).AnalyzeState(r.env.state()); err != nil {
			return fmt.Errorf("reference analysis: %w", err)
		}
	}
	if err := probeLayers(r, ref, m); err != nil {
		return err
	}
	tr := &tracer{}
	g, err := newStaged(r, tr)
	if err != nil {
		return fmt.Errorf("staged set-up: %w", err)
	}
	defer g.close()
	traced := make([]opSample, count.ops)
	for i := range traced {
		tr.op = i
		s, rep := r.runOp(i == 0)
		if rep != nil {
			id := tr.record(spanPublicOp, -1, s.startNS, s.startNS+s.latencyNS)
			hyp, err := g.replay(id)
			if err != nil {
				s.failure = "staged replay: " + err.Error()
			} else if !slices.Equal(hyp, rep.Hypothesis) && s.failure == "" {
				s.failure = fmt.Sprintf("staged hypothesis %v differs from the report's %v", hyp, rep.Hypothesis)
			}
		}
		traced[i] = s
	}

	r.settle(traced)
	all := append(append([]opSample(nil), plain...), traced...)
	rec.count(all)
	sum := summarize(all)
	n := len(all)
	m.set("scout.op_p50_ms", sum.p50, "ms", n)
	m.set("scout.op_p90_ms", percentile(sum.latMS, 90), "ms", n)
	m.set("scout.op_p99_ms", percentile(sum.latMS, 99), "ms", n)
	m.set("scout.op_max_ms", maxOf(sum.latMS), "ms", n)
	m.set("scout.op_mean_ms", sum.mean, "ms", n)
	m.set("scout.stall_ops", float64(countOver(sum.latMS, stallFactor*sum.p50)), "count", n)
	m.set("scout.alloc_mb_per_op", sum.allocMB, "MB", n)
	m.set("scout.allocs_per_op", sum.mallocs, "count", n)
	m.set("scout.gc_pause_ms_per_op", sum.gcPauseMS, "ms", n)
	m.set("scout.report_json_ms", sum.jsonMS, "ms", sum.jsonN)
	m.set("scout.report_bytes", sum.jsonBytes, "B", sum.jsonN)

	st := r.stats()
	runs := float64(st.Runs)
	if runs == 0 {
		runs = 1
	}
	m.set("scout.switches_checked_per_op", float64(st.Checked)/runs, "count", st.Runs)
	m.set("scout.switches_replayed_per_op", float64(st.Replayed)/runs, "count", st.Runs)
	m.set("scout.delta_nodes_end", float64(st.DeltaNodes), "count", 0)
	m.set("scout.checker_compactions", float64(st.CheckerCompactions), "count", 0)
	m.set("scout.checker_resets", float64(st.CheckerResets), "count", 0)
	m.set("scout.failed_ops_share", ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio", rec.Attempted)

	// The staged spans hang directly beneath the public op's span, so an
	// op's residual is what no staged layer call accounts for: the
	// Session's and Analyzer's own glue. The metric is the median residual
	// (one stall in either twin would swamp a mean); the span table's
	// scout.op row carries the mean.
	rec.Spans = tr.table(len(traced))
	residuals := tr.residuals(spanPublicOp)
	m.set("scout.unattributed_ms", median(residuals), "ms", len(residuals))
	m.set("scout.trace_overhead_ratio", ratio(summarize(traced).p50, summarize(plain).p50), "ratio", len(traced))
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.json", r.name, r.env.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
