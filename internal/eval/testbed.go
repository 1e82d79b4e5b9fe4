// Figure 10: testbed accuracy, measured through the full end-to-end
// pipeline — fabric deployment, TCAM fault injection, then the analyzer's
// collection, BDD equivalence checking, risk-model augmentation and
// localization — rather than model-level fault simulation. This mirrors
// the paper's hardware-testbed methodology (§VI-A) on the simulated
// fabric.

package eval

import (
	"math/rand"

	"scout"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/topo"
	"scout/internal/workload"
)

// TestbedOptions configures the end-to-end testbed experiment.
type TestbedOptions struct {
	MaxFaults int // paper: 10
	Runs      int // paper: 10
	Noise     int // healthy objects with recent change-log entries
	Seed      int64
}

// TestbedAccuracy reproduces Figure 10: SCOUT vs SCORE-1 on the testbed
// policy with up to MaxFaults simultaneous object faults, run through the
// complete pipeline.
func TestbedAccuracy(spec workload.Spec, opts TestbedOptions) (*AccuracyResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	pol, tp, err := workload.Generate(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	return accuracySweep("testbed end-to-end", []string{"SCOUT", "SCORE-1"}, opts.MaxFaults, opts.Runs,
		func(n int) ([]localize.Accuracy, error) { return testbedRun(pol, tp, rng, n, opts.Noise) })
}

// testbedRun executes one end-to-end experiment: deploy the policy onto a
// fresh fabric, inject n object faults into the TCAMs, analyze the fabric,
// and score the report's SCOUT hypothesis and SCORE-1 on the report's
// controller view against the ground truth. Every change-log entry lands
// moments after the fabric is created, well inside the analysis' window.
func testbedRun(pol *policy.Policy, tp *topo.Topology, rng *rand.Rand, n, noise int) ([]localize.Accuracy, error) {
	f, err := fabric.New(pol, tp, fabric.Options{Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	if err := f.Deploy(); err != nil {
		return nil, err
	}

	// Sample the fault scenario among deployed objects.
	candidates := workload.BuildIndex(f.Deployment()).Objects()
	sc, err := workload.NewScenario(rng, candidates, n, 0)
	if err != nil {
		return nil, err
	}
	for _, flt := range sc.Faults {
		if _, err := f.InjectObjectFault(flt.Ref, flt.Fraction); err != nil {
			return nil, err
		}
	}
	// Noise: healthy objects with recent change-log entries.
	perm := rng.Perm(len(candidates))
	noisy := 0
	truth := object.NewSet(sc.GroundTruth...)
	for _, i := range perm {
		if noisy >= noise {
			break
		}
		if truth.Has(candidates[i]) {
			continue
		}
		f.RecordChange(faultlog.OpModify, candidates[i], "unrelated operator action")
		noisy++
	}

	rep, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return nil, err
	}
	// rep.Controller is nil on a consistent fabric; rep.Hypothesis is then
	// empty, which is what SCOUT picks on an unmarked model.
	return []localize.Accuracy{
		(&localize.Result{Hypothesis: rep.Hypothesis}).Evaluate(sc.GroundTruth),
		localize.Score(rep.ControllerView, 1.0).Evaluate(sc.GroundTruth),
	}, nil
}
