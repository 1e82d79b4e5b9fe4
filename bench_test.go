// Benchmark harness: one benchmark per paper table/figure (§VI), plus the
// DESIGN.md ablations. Each benchmark regenerates its experiment at a
// reduced-but-representative scale so `go test -bench=.` completes in
// minutes; cmd/scout-bench runs the same experiments at paper scale.
//
// The figures' qualitative shapes (who wins, by how much, where curves
// bend) are asserted by the test suite in internal/eval; the benchmarks
// here measure the cost of regenerating each figure and print the headline
// metrics for eyeballing against the paper.
package scout_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"scout"
	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/localize"
	"scout/internal/risk"
	"scout/internal/workload"
)

// benchScale keeps -bench runs affordable; scout-bench uses 1.0.
const benchScale = 0.15

var (
	simEnvOnce sync.Once
	simEnv     *eval.Env
	simEnvErr  error
)

func benchEnv(b *testing.B) *eval.Env {
	b.Helper()
	simEnvOnce.Do(func() {
		simEnv, simEnvErr = eval.NewEnv(eval.SimSpec(benchScale), 42)
	})
	if simEnvErr != nil {
		b.Fatal(simEnvErr)
	}
	return simEnv
}

// BenchmarkFigure3 regenerates the object-sharing CDFs (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.Figure3(env)
		if len(res.Series["vrfs"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure7Testbed regenerates the testbed suspect-set-reduction
// panel (Figure 7a): 200 single-object faults, γ per suspect-set bucket.
func BenchmarkFigure7Testbed(b *testing.B) {
	env, err := eval.NewEnv(workload.TestbedSpec(), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SuspectSetReduction(env, eval.GammaOptions{
			Faults:  200,
			Buckets: [][2]int{{1, 10}, {10, 20}, {20, 40}, {40, 60}},
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFigure7Sim regenerates the simulation panel (Figure 7b) at
// reduced fault count per iteration.
func BenchmarkFigure7Sim(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SuspectSetReduction(env, eval.GammaOptions{
			Faults:  150,
			Buckets: [][2]int{{1, 10}, {10, 50}, {50, 100}, {100, 500}, {500, 1000}},
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFigure8 regenerates the switch-risk-model accuracy comparison
// (Figure 8): SCOUT vs SCORE-0.6 vs SCORE-1 over 1..10 faults.
func BenchmarkFigure8(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SwitchModelAccuracy(env, eval.AccuracyOptions{
			MaxFaults: 10, Runs: 5, Noise: 5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		reportHeadline(b, res)
	}
}

// BenchmarkFigure9 regenerates the controller-risk-model accuracy
// comparison (Figure 9).
func BenchmarkFigure9(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.ControllerModelAccuracy(env, eval.AccuracyOptions{
			MaxFaults: 10, Runs: 5, Noise: 5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		reportHeadline(b, res)
	}
}

// BenchmarkFigure10 regenerates the end-to-end testbed comparison
// (Figure 10): full pipeline per run (fabric, TCAM faults, BDD check,
// augmentation, localization).
func BenchmarkFigure10(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.TestbedAccuracy(workload.TestbedSpec(), eval.TestbedOptions{
			MaxFaults: 5, Runs: 3, Noise: 3, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		reportHeadline(b, res)
	}
}

// BenchmarkScalability measures controller-model build + SCOUT runtime at
// growing switch counts (§VI-B; the paper reports ~45 s at 200 switches
// and ~130 s at 500 on a 4-core 2.6 GHz machine).
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Scalability([]int{10, 25, 50}, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.LocalizeSecs, "localize-s@50sw")
		b.ReportMetric(float64(last.Elements), "elements@50sw")
	}
}

// BenchmarkAblationNoChangeLog quantifies the recall the change-log stage
// buys (DESIGN.md §5): SCOUT stage 1 alone vs the full algorithm.
func BenchmarkAblationNoChangeLog(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.ControllerModelAccuracy(env, eval.AccuracyOptions{
			MaxFaults:  5,
			Runs:       5,
			Noise:      5,
			Seed:       int64(i),
			Algorithms: []eval.Algorithm{eval.StandardAlgorithms()[0], eval.ScoutNoChangeLog()},
		})
		if err != nil {
			b.Fatal(err)
		}
		full, _ := res.Curve("SCOUT")
		ablated, _ := res.Curve("SCOUT-nolog")
		b.ReportMetric(full.MeanRecall()-ablated.MeanRecall(), "recall-gain")
	}
}

// BenchmarkScoutAlgorithm measures the raw localization algorithm on a
// pre-annotated controller model (the §VI-B scalability kernel).
func BenchmarkScoutAlgorithm(b *testing.B) {
	env := benchEnv(b)
	model, changed := annotatedModel(b, env, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := localize.Scout(model, localize.SetOracle(changed))
		if len(res.Hypothesis) == 0 {
			b.Fatal("no hypothesis")
		}
	}
}

// BenchmarkScoreAlgorithm measures the SCORE baseline on the same model.
func BenchmarkScoreAlgorithm(b *testing.B) {
	env := benchEnv(b)
	model, _ := annotatedModel(b, env, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localize.Score(model, 1.0)
	}
}

func annotatedModel(b *testing.B, env *eval.Env, faults int) (*risk.Model, map[scout.ObjectRef]struct{}) {
	b.Helper()
	model := risk.BuildControllerModel(env.Deployment, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	rng := newRand(7)
	sc, err := workload.NewScenario(rng, env.Index.Objects(), faults, 5)
	if err != nil {
		b.Fatal(err)
	}
	workload.ApplyToControllerModel(model, env.Deployment, env.Index, sc, rng)
	return model, sc.Changed
}

// BenchmarkControllerModelBuild measures risk-model construction, the
// dominant cost at large switch counts.
func BenchmarkControllerModelBuild(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := risk.BuildControllerModel(env.Deployment, risk.ControllerModelOptions{IncludeSwitchRisk: true})
		if m.NumElements() == 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkCompile measures policy compilation into per-switch L-type
// rules.
func BenchmarkCompile(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(env.Policy, env.Topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndAnalyze measures the full public-API pipeline on the
// 3-tier example with one injected fault (the quickstart path).
func BenchmarkEndToEndAnalyze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := threeTier(b, int64(i))
		if _, err := f.InjectObjectFault(scout.FilterRef(700), 1.0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if oneShot(b, f).Consistent {
			b.Fatal("fault not detected")
		}
	}
}

// BenchmarkAnalyzeWorkers measures the end-to-end analyzer at varying
// worker counts on a multi-switch faulty fabric. workers=1 is the serial
// pipeline; higher counts shard the per-switch equivalence checks across
// the pool, every worker checker a fork of the frozen shared encoding
// base (wall-clock speedup is bounded by GOMAXPROCS — on single-core
// machines compare the bdd-nodes/op metric instead, which counts total
// node construction).
func BenchmarkAnalyzeWorkers(b *testing.B) {
	spec := scout.ProductionWorkloadSpec()
	spec.EPGs = 200
	spec.Contracts = 120
	spec.Filters = 60
	spec.TargetPairs = 2000
	spec.Switches = 16
	// Pin each EPG to one switch (the paper's §VI-B scaling methodology:
	// growth adds EPG-and-switch pairs). Per-switch rule sets then barely
	// overlap, so sharding duplicates little BDD encoding work and the
	// speedup tracks GOMAXPROCS instead of memo loss.
	spec.SwitchesPerEPGMax = 1
	pol, topo, err := scout.GenerateWorkload(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	f := deployed(b, pol, topo, scout.FabricOptions{Seed: 42})
	for _, bind := range pol.Bindings[:3] {
		if _, err := f.InjectObjectFault(scout.ContractRef(bind.Contract), 1.0); err != nil {
			b.Fatal(err)
		}
	}
	st := fabricState(f)
	for _, workers := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			a := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers})
			var nodes int
			for i := 0; i < b.N; i++ {
				rep, err := a.AnalyzeState(st)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Consistent {
					b.Fatal("faults not detected")
				}
				nodes = rep.EncodeStats.BaseNodes + rep.EncodeStats.DeltaNodes
			}
			b.ReportMetric(float64(nodes), "bdd-nodes/op")
		})
	}
}

// BenchmarkSessionProbeWarm measures the probe-mode replay payoff on a
// clean fabric: the cold path classifies every switch's probe batch
// each round, the warm path fingerprints the TCAMs and replays every
// cached verdict without a single Classify call.
func BenchmarkSessionProbeWarm(b *testing.B) {
	f := cleanFabric(b, eval.SimSpec(benchScale), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	opts := scout.AnalyzerOptions{UseProbes: true}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oneShot(b, f, opts)
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := newSession(b, f, opts)
		mustReport(b, sess.Analyze) // warm-up: populate the probe cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustReport(b, sess.Analyze)
		}
		b.StopTimer()
		st := sess.Stats()
		if st.Runs > 1 {
			b.ReportMetric(float64(st.Checked-len(f.Deployment().BySwitch))/float64(st.Runs-1),
				"switches-classified/op")
		}
	})
}

// BenchmarkEquivBDD and BenchmarkEquivNaive compare the exact ROBDD
// checker against the key-set differ (DESIGN.md ablation: the naive
// differ is faster but blind to semantic overlap).
func BenchmarkEquivBDD(b *testing.B) {
	benchEquiv(b, false)
}

// BenchmarkEquivNaive is the naive key-set counterpart of
// BenchmarkEquivBDD.
func BenchmarkEquivNaive(b *testing.B) {
	benchEquiv(b, true)
}

func reportHeadline(b *testing.B, res *eval.AccuracyResult) {
	b.Helper()
	scoutCurve, ok := res.Curve("SCOUT")
	if !ok {
		b.Fatal("missing SCOUT curve")
	}
	b.ReportMetric(scoutCurve.MeanRecall(), "scout-recall")
	b.ReportMetric(scoutCurve.MeanPrecision(), "scout-precision")
	if score, ok := res.Curve("SCORE-1"); ok {
		b.ReportMetric(score.MeanRecall(), "score1-recall")
	}
}

// BenchmarkWarmSetupOverlay measures the per-run setup cost a warm
// session pays before localization: stacking a copy-on-write overlay on
// the cached pristine controller model (O(1); marks are then O(dirty
// failures)).
func BenchmarkWarmSetupOverlay(b *testing.B) {
	env := benchEnv(b)
	pristine := risk.BuildControllerModel(env.Deployment, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if risk.NewOverlay(pristine).NumElements() == 0 {
			b.Fatal("empty overlay")
		}
	}
}

// warmStateBytes sums the on-disk size of a warm-state directory.
func warmStateBytes(b *testing.B, dir string) int64 {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			b.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// BenchmarkStoreRoundTrip measures the store codec through the store:
// persisting the benchmark deployment's frozen base (encode +
// atomic publish) and restoring it (verify + rebuild the open-addressed
// unique table). bytes/op is the base file size, bdd-nodes/op the frozen
// nodes carried per operation.
func BenchmarkStoreRoundTrip(b *testing.B) {
	f := faultyFabricOf(b, eval.SimSpec(benchScale), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	dir := b.TempDir()
	ws := warmStore(b, dir)
	sess := newSession(b, f, scout.AnalyzerOptions{WarmStore: ws})
	mustReport(b, sess.Analyze)
	if err := sess.Close(); err != nil {
		b.Fatal(err)
	}
	_, fp := equiv.DeploymentFingerprints(f.Deployment().BySwitch)
	base, err := ws.LoadBase(fp)
	if err != nil || base == nil {
		b.Fatalf("seed base missing: %v", err)
	}
	nodes, fileBytes := float64(base.Size()), float64(warmStateBytes(b, dir))

	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(fileBytes))
		for i := 0; i < b.N; i++ {
			if err := ws.SaveBase(fp, base); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(nodes, "bdd-nodes/op")
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(fileBytes))
		for i := 0; i < b.N; i++ {
			got, err := ws.LoadBase(fp)
			if err != nil || got == nil {
				b.Fatalf("LoadBase: %v", err)
			}
		}
		b.ReportMetric(nodes, "bdd-nodes/op")
	})
}
