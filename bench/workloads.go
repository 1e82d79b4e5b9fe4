package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"scout"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/workload"
)

// workloadNames is the run order; BENCHMARK.json lists the same five.
var workloadNames = []string{"cold-oneshot", "warm-clean", "warm-churn", "event-storm", "restart"}

// opCount is a workload's fixed work: ops timed and warm-up ops before
// them. Counts, not durations, so both sides of a comparison do the same
// work.
type opCount struct{ ops, warmup int }

// opCounts were taken on 2 cores to make each timed section last about
// BENCHMARK.json's run_seconds (10). They are constants: nothing on the
// command line changes them.
var opCounts = map[string]opCount{
	"cold-oneshot": {5, 1},
	"warm-clean":   {1500, 50},
	"warm-churn":   {16, 4},
	"event-storm":  {48, 8},
	"restart":      {16, 2},
}

// coldCheckEvery is how often a state-changing workload's report is
// compared with a cold analysis of the same state (a cold analysis costs
// about a second, so not every op).
const coldCheckEvery = 16

// params is what a workload needs besides its seed.
type params struct {
	spec    workload.Spec
	workers int
	// setupReps is how many times an untraced run sets up from scratch;
	// setup_s is the median, and the last set-up is the one measured on.
	setupReps int
	// stateDir is where temp state directories are created (and removed).
	stateDir string
}

func (p params) analyzerOptions() scout.AnalyzerOptions {
	return scout.AnalyzerOptions{Workers: p.workers}
}

// runner is one workload after set-up.
type runner struct {
	name string
	p    params
	env  *env
	// prepare is the environment acting before an op (TCAM churn, an event
	// burst); it is not timed. op is the journey under test.
	prepare func() error
	op      func() (*scout.Report, error)
	// verify is the workload's own per-op condition beyond report
	// identity (restart: the base was loaded, nothing was re-checked).
	verify func() error
	// static is true when no op changes the fabric, so every report must
	// equal the one reference report.
	static bool
	stats  func() scout.SessionStats
	close  func() error
	// lastEvents is the burst the last event-storm op drained, kept so the
	// traced pass can push the same events through its own queue.
	lastEvents []faultlog.Event

	refJSON []byte
	// seq counts ops run; deferred holds the reports of state-changing
	// ops that still await comparison with a cold analysis (see settle).
	seq      int
	deferred []deferredCheck
}

// deferredCheck is one report and the state it was made from.
type deferredCheck struct {
	seq   int
	got   []byte
	state scout.State
}

// setUp builds the environment for a seed and brings the named workload
// to its steady state: the cold analysis, session baseline or primed
// store that the journey starts from. totalOps is how many ops the run
// will make, warm-up included: each may need its own eviction window.
func setUp(name string, p params, seed int64, totalOps int) (*runner, error) {
	windows := 1 // window 0: evicted in set-up, and the probes' dirty switch
	if name == "warm-churn" || name == "event-storm" {
		windows += totalOps
	}
	e, err := buildEnv(p.spec, seed, windows)
	if err != nil {
		return nil, err
	}
	r := &runner{name: name, p: p, env: e, close: func() error { return nil },
		stats: func() scout.SessionStats { return scout.SessionStats{} }}
	opts := p.analyzerOptions()
	f := e.fabric

	evictFirstWindow := func() error {
		for i := range e.switches {
			if err := e.rotate(i, 0, nil); err != nil {
				return err
			}
		}
		return nil
	}

	switch name {
	case "cold-oneshot":
		r.static = true
		r.op = func() (*scout.Report, error) { return scout.NewAnalyzer(opts).Analyze(f) }
		if _, err := r.op(); err != nil {
			return nil, err
		}

	case "warm-clean", "warm-churn":
		r.static = name == "warm-clean"
		if !r.static {
			if err := evictFirstWindow(); err != nil {
				return nil, err
			}
			window := 0
			r.prepare = func() error {
				window++
				for s := range e.switches {
					if err := e.rotate(s, window, nil); err != nil {
						return err
					}
				}
				return nil
			}
		}
		sess, err := scout.NewSession(f, opts)
		if err != nil {
			return nil, err
		}
		collector := scout.NewCollector(f, 4)
		r.op = func() (*scout.Report, error) { return sess.AnalyzeEpoch(collector.Snapshot()) }
		r.stats = sess.Stats
		if _, err := r.op(); err != nil {
			return nil, err
		}

	case "event-storm":
		if err := evictFirstWindow(); err != nil {
			return nil, err
		}
		sess, err := scout.NewSession(f, opts)
		if err != nil {
			return nil, err
		}
		if _, err := sess.ApplyEvents(scout.EventBatch{}); err != nil {
			return nil, err
		}
		cursor := f.EventLog().TailCursor()
		queue := scout.NewEventQueue(scout.EventQueueOptions{Cap: 64, BatchSize: 8})
		visits := make([]int, len(e.switches))
		emit := func(sw object.ID) { f.EventLog().Append(f.Now(), scout.EventTCAMChange, sw, "storm") }
		burst := 0
		r.prepare = func() error {
			a := (e.stormStart + burst) % len(e.switches)
			burst++
			b := (a + 1) % len(e.switches)
			for _, s := range []int{a, b} {
				visits[s]++
				if err := e.rotate(s, visits[s], emit); err != nil {
					return err
				}
			}
			return nil
		}
		r.op = func() (*scout.Report, error) {
			r.lastEvents = cursor.Drain()
			for _, ev := range r.lastEvents {
				queue.Push(ev)
			}
			return sess.ApplyEvents(queue.Cut(f.Now()))
		}
		r.stats = sess.Stats

	case "restart":
		r.static = true
		dir, err := os.MkdirTemp(p.stateDir, "state-")
		if err != nil {
			return nil, err
		}
		r.close = func() error { return os.RemoveAll(dir) }
		var last scout.SessionStats
		r.op = func() (*scout.Report, error) {
			ws, err := scout.OpenWarmStore(dir)
			if err != nil {
				return nil, err
			}
			o := opts
			o.WarmStore = ws
			sess, err := scout.NewSession(f, o)
			if err != nil {
				ws.Close()
				return nil, err
			}
			rep, err := sess.Analyze()
			last = sess.Stats()
			if cerr := sess.Close(); err == nil {
				err = cerr
			}
			if cerr := ws.Close(); err == nil {
				err = cerr
			}
			return rep, err
		}
		r.stats = func() scout.SessionStats { return last }
		// Priming is the same sequence run against the empty directory:
		// it builds the base and verdicts and flushes them on Close.
		if _, err := r.op(); err != nil {
			r.close()
			return nil, err
		}
		if last.BaseRebuilds != 1 {
			r.close()
			return nil, fmt.Errorf("restart priming built %d bases, want 1", last.BaseRebuilds)
		}
		r.verify = func() error {
			if last.BaseLoads != 1 || last.Checked != 0 {
				return fmt.Errorf("restart loaded %d bases and re-checked %d switches, want 1 and 0", last.BaseLoads, last.Checked)
			}
			return nil
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return r, nil
}

// reportJSON is the report's JSON with the one field that is a
// measurement, not a result, zeroed.
func reportJSON(rep *scout.Report) ([]byte, error) {
	rep.Elapsed = 0
	return json.Marshal(rep)
}

// opSample is what the harness records around one op.
type opSample struct {
	seq                int
	startNS, latencyNS int64
	allocBytes         uint64
	mallocs            uint64
	gcPauseNS          uint64
	jsonNS             int64
	jsonBytes          int
	// scored is set once the op's report has been scored for accuracy.
	scored            bool
	recall, precision float64
	failure           string
}

// runOp runs one op (prepare untimed, op timed, checks untimed) and
// returns the sample and the report. deep forces the comparison with a
// cold analysis on state-changing workloads.
func (r *runner) runOp(deep bool) (opSample, *scout.Report) {
	r.seq++
	s := opSample{seq: r.seq}
	if r.prepare != nil {
		if err := r.prepare(); err != nil {
			s.failure = fmt.Sprintf("prepare: %v", err)
			return s, nil
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.startNS = nowNS()
	rep, err := r.op()
	s.latencyNS = nowNS() - s.startNS
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if err != nil {
		s.failure = err.Error()
		return s, nil
	}
	if err := r.checkOp(rep, deep, &s); err != nil {
		s.failure = err.Error()
	}
	return s, rep
}

// checkOp is the output check: the workload's own condition, accuracy
// against the generator's ground truth, and report identity. A static
// workload's report is compared with the set-up reference at once. A
// state-changing workload's is compared with a cold analysis of the same
// state, which costs over a second and half a gigabyte of garbage, so the
// state is kept and the comparison made by settle once measuring is over:
// run in place it would inflate peak RSS and disturb the following ops.
func (r *runner) checkOp(rep *scout.Report, deep bool, s *opSample) error {
	s.recall, s.precision = accuracy(rep.Hypothesis, r.env.truth)
	s.scored = true
	if r.verify != nil {
		if err := r.verify(); err != nil {
			return err
		}
	}
	if !r.static && !deep {
		return nil
	}
	t0 := nowNS()
	got, err := reportJSON(rep)
	s.jsonNS, s.jsonBytes = nowNS()-t0, len(got)
	if err != nil {
		return err
	}
	if !r.static {
		r.deferred = append(r.deferred, deferredCheck{s.seq, got, r.env.state()})
		return nil
	}
	return sameReport(got, r.refJSON)
}

func sameReport(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from a cold analysis of the same state (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// settle makes the deferred comparisons and marks the samples whose
// report did not match.
func (r *runner) settle(samples []opSample) {
	for _, d := range r.deferred {
		var err error
		rep, aerr := scout.NewAnalyzer(r.p.analyzerOptions()).AnalyzeState(d.state)
		if err = aerr; err == nil {
			var want []byte
			if want, err = reportJSON(rep); err == nil {
				err = sameReport(d.got, want)
			}
		}
		for i := range samples {
			if err != nil && samples[i].seq == d.seq && samples[i].failure == "" {
				samples[i].failure = err.Error()
			}
		}
	}
	r.deferred = nil
}

// accuracy scores a hypothesis against the injected objects.
func accuracy(hypothesis, truth []object.Ref) (recall, precision float64) {
	in := make(map[object.Ref]bool, len(truth))
	for _, ref := range truth {
		in[ref] = true
	}
	hit := 0
	for _, ref := range hypothesis {
		if in[ref] {
			hit++
		}
	}
	if len(truth) > 0 {
		recall = float64(hit) / float64(len(truth))
	}
	if len(hypothesis) > 0 {
		precision = float64(hit) / float64(len(hypothesis))
	}
	return recall, precision
}

// withoutRules returns rules minus drop, for the probes that need a
// deliberately dirty switch.
func withoutRules(rules, drop []rule.Rule) []rule.Rule {
	gone := make(map[rule.Key]bool, len(drop))
	for _, r := range drop {
		gone[r.Key()] = true
	}
	out := make([]rule.Rule, 0, len(rules))
	for _, r := range rules {
		if !gone[r.Key()] {
			out = append(out, r)
		}
	}
	return out
}
