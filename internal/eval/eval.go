// Package eval contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§VI): the Figure 3 sharing
// CDFs, the Figure 7 suspect-set-reduction study, the Figure 8/9/10
// precision-recall comparisons between SCOUT and SCORE, and the §VI-B
// scalability measurement. Each experiment is deterministic under a seed.
// The simulated ones share an Env: one generated and compiled workload and
// its pristine controller risk model, built once by NewEnv, which each
// scenario marks through an overlay of its own.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"scout/internal/compile"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/topo"
	"scout/internal/workload"
)

// changeNoise is how many healthy objects every experiment's scenario
// records as recently changed, beside its faulty ones: the change-log
// noise SCOUT's second stage must see past.
const changeNoise = 5

// Env bundles the generated workload artifacts shared by experiments.
type Env struct {
	Policy     *policy.Policy
	Topo       *topo.Topology
	Deployment *compile.Deployment
	Index      *workload.DepIndex

	// ctrl is Deployment's controller risk model, built once by NewEnv and
	// never written: every scenario marks it through a fresh overlay.
	ctrl *risk.Model
	// ctrlBuild is how long NewEnv took to build ctrl, Scalability's
	// build-secs.
	ctrlBuild time.Duration
}

// NewEnv generates and compiles a workload environment and builds its
// controller risk model.
func NewEnv(spec workload.Spec, seed int64) (*Env, error) {
	p, t, err := workload.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	d, err := compile.Compile(p, t)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctrl, err := risk.BuildControllerModel(d)
	if err != nil {
		return nil, err
	}
	build := time.Since(start) // before the literal, whose BuildIndex is no part of the build
	return &Env{
		Policy:     p,
		Topo:       t,
		Deployment: d,
		Index:      workload.BuildIndex(d),
		ctrl:       ctrl,
		ctrlBuild:  build,
	}, nil
}

// SimSpec returns the production-like simulation spec scaled by the given
// positive factor (1.0 = the paper's full cluster size); every count is
// rounded, and at least 2. Benchmarks use a reduced scale to keep
// per-iteration cost sane; cmd/scout-bench defaults to 0.25, which is 8
// switches, 154 EPGs and 97 contracts. policygen -scale truncates instead:
// its production x0.25, which cmd/scout's golden cases also use, is 7
// switches, 153 EPGs and 96 contracts.
func SimSpec(scale float64) workload.Spec {
	s := workload.ProductionSpec()
	shrink := func(n int) int {
		v := int(math.Round(float64(n) * scale))
		if v < 2 {
			v = 2
		}
		return v
	}
	s.EPGs = shrink(s.EPGs)
	s.Contracts = shrink(s.Contracts)
	s.Filters = shrink(s.Filters)
	s.TargetPairs = shrink(s.TargetPairs)
	s.Switches = shrink(s.Switches)
	return s
}

// ---------------------------------------------------------------------------
// Figure 3: CDF of EPG pairs per object.
// ---------------------------------------------------------------------------

// Figure3Result holds, per object category, the sorted per-object counts
// of distinct EPG pairs depending on it.
type Figure3Result struct {
	// Series maps category ("vrfs", "epgs", "contracts", "filters",
	// "switches") to sorted dependent-pair counts.
	Series map[string][]int
}

// Figure3 computes the sharing distributions for an environment from its
// controller model: a risk's count is the distinct EPG pairs among its
// dependents, and a switch's is its number of elements, one per pair.
func Figure3(env *Env) *Figure3Result {
	pairs := env.Deployment.Footprint.Pairs // element i of env.ctrl is pairs[i]
	kindName := map[object.Kind]string{
		object.KindSwitch:   "switches",
		object.KindVRF:      "vrfs",
		object.KindEPG:      "epgs",
		object.KindContract: "contracts",
		object.KindFilter:   "filters",
	}
	res := &Figure3Result{Series: map[string][]int{}}
	var seen []policy.EPGPair
	for r, ref := range env.ctrl.Risks() {
		deps := env.ctrl.Dependents(risk.RiskID(r))
		n := len(deps)
		if ref.Kind != object.KindSwitch {
			seen = seen[:0]
			for _, el := range deps {
				seen = append(seen, pairs[el].Pair)
			}
			slices.SortFunc(seen, policy.EPGPair.Compare)
			n = len(slices.Compact(seen))
		}
		name := kindName[ref.Kind]
		res.Series[name] = append(res.Series[name], n)
	}
	for k := range res.Series {
		sort.Ints(res.Series[k])
	}
	return res
}

// FractionAbove returns the fraction of sorted counts strictly greater
// than threshold.
func FractionAbove(sorted []int, threshold int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchInts(sorted, threshold+1)
	return float64(len(sorted)-i) / float64(len(sorted))
}

// Percentile returns the q-th percentile (0..100) of sorted counts.
func Percentile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Render returns the Figure 3 result as an aligned text table of CDF
// checkpoints.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s %8s\n",
		"objects", "count", "p50", "p90", ">100", ">1000", ">10000")
	for _, name := range []string{"switches", "vrfs", "epgs", "contracts", "filters"} {
		s := r.Series[name]
		fmt.Fprintf(&b, "%-10s %8d %8d %8d %7.1f%% %7.1f%% %7.1f%%\n",
			name, len(s), Percentile(s, 50), Percentile(s, 90),
			100*FractionAbove(s, 100), 100*FractionAbove(s, 1000), 100*FractionAbove(s, 10000))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 8/9/10: precision & recall vs number of simultaneous faults.
// ---------------------------------------------------------------------------

// Algorithm selects a localization algorithm variant for experiments.
type Algorithm struct {
	// Name labels the curve ("SCOUT", "SCORE-0.6", "SCORE-1").
	Name string
	// Run executes the algorithm against an annotated risk view (a model
	// or a failure overlay). changed is the simulated recent-change
	// oracle.
	Run func(v risk.View, changed object.Set) *localize.Result
}

// StandardAlgorithms returns the three algorithm variants the paper's
// accuracy figures compare.
func StandardAlgorithms() []Algorithm {
	return []Algorithm{
		{
			Name: "SCOUT",
			Run: func(v risk.View, changed object.Set) *localize.Result {
				return localize.Scout(v, localize.SetOracle(changed))
			},
		},
		{
			Name: "SCORE-0.6",
			Run: func(v risk.View, _ object.Set) *localize.Result {
				return localize.Score(v, 0.6)
			},
		},
		{
			Name: "SCORE-1",
			Run: func(v risk.View, _ object.Set) *localize.Result {
				return localize.Score(v, 1.0)
			},
		},
	}
}

// ScoutNoChangeLog is the ablation `cmd/scout-bench -experiment ablation`
// runs, scored in README's claims table: SCOUT stage one only.
func ScoutNoChangeLog() Algorithm {
	return Algorithm{
		Name: "SCOUT-nolog",
		Run: func(v risk.View, _ object.Set) *localize.Result {
			return localize.Scout(v, nil)
		},
	}
}

// AccuracyPoint is one (fault count → mean accuracy) measurement.
type AccuracyPoint struct {
	Faults    int
	Precision float64
	Recall    float64
}

// AccuracyCurve is one algorithm's accuracy across fault counts.
type AccuracyCurve struct {
	Name   string
	Points []AccuracyPoint
}

// AccuracyResult is a full precision/recall figure.
type AccuracyResult struct {
	Title  string
	Curves []AccuracyCurve
}

// AccuracyOptions configures an accuracy experiment.
type AccuracyOptions struct {
	MaxFaults  int // x-axis upper bound (paper: 10)
	Runs       int // repetitions per point (paper: 30 sim, 10 testbed)
	Seed       int64
	Algorithms []Algorithm // the curves, in column order
}

// SwitchModelAccuracy reproduces Figure 8: faults are injected into the
// rules of a single switch and localized on that switch's risk model, its
// range of the controller model.
func SwitchModelAccuracy(env *Env, opts AccuracyOptions) (*AccuracyResult, error) {
	// Choose the switch with the most dependent objects so every fault
	// count is feasible.
	sw, local := busiestSwitch(env)
	return simulate("switch risk model", local.Objects(), opts, func(sc workload.Scenario, rng *rand.Rand) *risk.Overlay {
		return risk.MarkSwitch(env.ctrl, sw, sc.Missing(local, rng)[sw], env.Deployment.Provenance).View()
	})
}

// ControllerModelAccuracy reproduces Figure 9: faults are injected across
// switches and localized on the controller risk model.
func ControllerModelAccuracy(env *Env, opts AccuracyOptions) (*AccuracyResult, error) {
	return simulate("controller risk model", env.Index.Objects(), opts, env.markMissing)
}

// markMissing returns the controller view of env's model marked with the
// rules sc's faults remove, as Analyzer.assemble marks it: one run of marks
// a switch, joined in ascending switch order.
func (env *Env) markMissing(sc workload.Scenario, rng *rand.Rand) *risk.Overlay {
	missing := sc.Missing(env.Index, rng)
	var runs []*risk.SwitchMarks
	for _, sw := range env.Topo.Switches() {
		runs = append(runs, risk.MarkSwitch(env.ctrl, sw, missing[sw], env.Deployment.Provenance))
	}
	return risk.NewOverlay(env.ctrl, runs...)
}

// simulate drives one simulated accuracy figure. The pristine model is
// shared read-only across every run: each scenario's faults land in a
// fresh copy-on-write overlay over it, made by mark, and the algorithms
// localize through the overlay view, so runs never pay a model reset (or
// clone) and cannot leak marks into each other.
func simulate(title string, candidates []object.Ref, opts AccuracyOptions,
	mark func(workload.Scenario, *rand.Rand) *risk.Overlay) (*AccuracyResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	names := make([]string, len(opts.Algorithms))
	for i, alg := range opts.Algorithms {
		names[i] = alg.Name
	}
	return accuracySweep(title, names, opts.MaxFaults, opts.Runs, func(n int) ([]localize.Accuracy, error) {
		sc, err := workload.NewScenario(rng, candidates, n, changeNoise)
		if err != nil {
			return nil, err
		}
		ov := mark(sc, rng)
		accs := make([]localize.Accuracy, len(opts.Algorithms))
		for i, alg := range opts.Algorithms {
			accs[i] = alg.Run(ov, sc.Changed).Evaluate(sc.GroundTruth)
		}
		return accs, nil
	})
}

// accuracySweep averages each curve's precision and recall over runs
// trials at every fault count from 1 to maxFaults. A trial scores one
// scenario of n faults, one accuracy per curve.
func accuracySweep(title string, names []string, maxFaults, runs int,
	trial func(n int) ([]localize.Accuracy, error)) (*AccuracyResult, error) {
	curves := make([]AccuracyCurve, len(names))
	for i, name := range names {
		curves[i].Name = name
	}
	for n := 1; n <= maxFaults; n++ {
		sumsP := make([]float64, len(names))
		sumsR := make([]float64, len(names))
		for run := 0; run < runs; run++ {
			accs, err := trial(n)
			if err != nil {
				return nil, err
			}
			for i, acc := range accs {
				sumsP[i] += acc.Precision
				sumsR[i] += acc.Recall
			}
		}
		for i := range curves {
			curves[i].Points = append(curves[i].Points, AccuracyPoint{
				Faults:    n,
				Precision: sumsP[i] / float64(runs),
				Recall:    sumsR[i] / float64(runs),
			})
		}
	}
	return &AccuracyResult{Title: title, Curves: curves}, nil
}

// busiestSwitch returns the switch with the most dependent objects, and
// the index restricted to it.
func busiestSwitch(env *Env) (object.ID, *workload.DepIndex) {
	best, bestIdx, bestObjs := object.ID(0), (*workload.DepIndex)(nil), -1
	for _, sw := range env.Topo.Switches() {
		local := env.Index.OnSwitch(sw)
		if n := len(local.Objects()); n > bestObjs {
			best, bestIdx, bestObjs = sw, local, n
		}
	}
	return best, bestIdx
}

// Render returns the accuracy result as an aligned text table.
func (r *AccuracyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s", r.Title, "faults")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %12s-P %12s-R", c.Name, c.Name)
	}
	b.WriteByte('\n')
	if len(r.Curves) == 0 {
		return b.String()
	}
	for i := range r.Curves[0].Points {
		fmt.Fprintf(&b, "%-8d", r.Curves[0].Points[i].Faults)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %14.3f %14.3f", c.Points[i].Precision, c.Points[i].Recall)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: suspect-set reduction γ.
// ---------------------------------------------------------------------------

// GammaBucket aggregates γ for faults whose suspect-set size falls in
// [Lo, Hi).
type GammaBucket struct {
	Lo, Hi    int
	MeanGamma float64
	Samples   int
}

// GammaResult is a full Figure 7 panel.
type GammaResult struct {
	Title   string
	Buckets []GammaBucket
}

// GammaOptions configures the suspect-set-reduction experiment.
type GammaOptions struct {
	Faults  int      // single-object faults to sample (paper: 1500 sim, 200 testbed)
	Buckets [][2]int // suspect-set-size buckets
	Seed    int64
}

// SuspectSetReduction reproduces Figure 7 on the controller risk model:
// for each sampled single-object fault, γ = |hypothesis| / |suspect set|,
// bucketed by suspect-set size.
func SuspectSetReduction(env *Env, opts GammaOptions) (*GammaResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	candidates := env.Index.Objects()

	sums := make([]float64, len(opts.Buckets))
	counts := make([]int, len(opts.Buckets))
	for i := 0; i < opts.Faults; i++ {
		sc, err := workload.NewScenario(rng, candidates, 1, changeNoise)
		if err != nil {
			return nil, err
		}
		ov := env.markMissing(sc, rng)
		suspects := len(ov.SuspectSet())
		if suspects == 0 {
			continue
		}
		res := localize.Scout(ov, localize.SetOracle(sc.Changed))
		gamma := float64(len(res.Hypothesis)) / float64(suspects)
		for bi, b := range opts.Buckets {
			if suspects >= b[0] && suspects < b[1] {
				sums[bi] += gamma
				counts[bi]++
				break
			}
		}
	}

	out := &GammaResult{Title: fmt.Sprintf("suspect-set reduction (%d faults)", opts.Faults)}
	for bi, b := range opts.Buckets {
		gb := GammaBucket{Lo: b[0], Hi: b[1], Samples: counts[bi]}
		if counts[bi] > 0 {
			gb.MeanGamma = sums[bi] / float64(counts[bi])
		}
		out.Buckets = append(out.Buckets, gb)
	}
	return out, nil
}

// Render returns the γ result as an aligned text table.
func (r *GammaResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %10s %10s\n", r.Title, "#suspects", "gamma", "samples")
	for _, gb := range r.Buckets {
		fmt.Fprintf(&b, "%6d-%-7d %10.4f %10d\n", gb.Lo, gb.Hi, gb.MeanGamma, gb.Samples)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Scalability (§VI-B): SCOUT runtime vs network size.
// ---------------------------------------------------------------------------

// ScalePoint is one scalability measurement.
type ScalePoint struct {
	Switches     int
	Elements     int
	Risks        int
	BuildSecs    float64
	LocalizeSecs float64
}

// ScaleResult is the scalability sweep output.
type ScaleResult struct {
	Points []ScalePoint
}

// ScaleSpec builds a workload spec that grows linearly with the switch
// count, mirroring the paper's methodology of scaling the 10-switch
// cluster policy by adding EPG-and-switch pairs up to 500 switches.
func ScaleSpec(switches int) workload.Spec {
	s := workload.ProductionSpec()
	s.Name = fmt.Sprintf("scale-%d", switches)
	s.Switches = switches
	s.EPGs = 20 * switches
	s.Contracts = 12 * switches
	s.TargetPairs = 300 * switches
	return s
}

// Scalability measures controller-risk-model construction, the one build
// NewEnv makes, and SCOUT runtime at each switch count.
func Scalability(switchCounts []int, faults int, seed int64) (*ScaleResult, error) {
	out := &ScaleResult{}
	for _, n := range switchCounts {
		env, err := NewEnv(ScaleSpec(n), seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(n)))
		sc, err := workload.NewScenario(rng, env.Index.Objects(), faults, changeNoise)
		if err != nil {
			return nil, err
		}
		ov := env.markMissing(sc, rng)

		start := time.Now()
		localize.Scout(ov, localize.SetOracle(sc.Changed))
		loc := time.Since(start)

		out.Points = append(out.Points, ScalePoint{
			Switches:     n,
			Elements:     ov.NumElements(),
			Risks:        ov.NumRisks(),
			BuildSecs:    env.ctrlBuild.Seconds(),
			LocalizeSecs: loc.Seconds(),
		})
	}
	return out, nil
}

// Render returns the scalability sweep as an aligned text table.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %8s %12s %14s\n",
		"switches", "elements", "risks", "build-secs", "localize-secs")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %10d %8d %12.3f %14.3f\n",
			p.Switches, p.Elements, p.Risks, p.BuildSecs, p.LocalizeSecs)
	}
	return b.String()
}
