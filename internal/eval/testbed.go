// Figure 10 and §VI-B run the product end to end, as the paper's hardware
// testbed does (§VI-A): a trial deploys a policy on the simulated fabric,
// injects object faults into its TCAMs and hands the fabric to the
// analyzer (collection, L-T check, marking, localization) instead of
// simulating faults on the model. Figure 10 scores a trial's report; the
// scalability sweep reads its Trace.

package eval

import (
	"math/rand"
	"slices"

	"scout"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/topo"
	"scout/internal/workload"
)

// trialCapacity is a trial's TCAM size, which no list fills (ScaleSpec's
// outgrow tcam.DefaultCapacity), so every rule a trial finds missing is
// one its faults removed, not an overflow.
const trialCapacity = 1 << 20

// TestbedOptions configures the end-to-end testbed experiment.
type TestbedOptions struct {
	MaxFaults int // paper: 10
	Runs      int // paper: 10
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
		func(n int) ([]localize.Accuracy, error) { return testbedRun(pol, tp, rng, n) })
}

// testbedRun scores one trial's SCOUT hypothesis and SCORE-1 on its
// report's controller view against the ground truth.
func testbedRun(pol *policy.Policy, tp *topo.Topology, rng *rand.Rand, n int) ([]localize.Accuracy, error) {
	rep, truth, err := trial(pol, tp, rng, n)
	if err != nil {
		return nil, err
	}
	// rep.Controller is nil on a consistent fabric; rep.Hypothesis is then
	// empty, which is what SCOUT picks on an unmarked model.
	return []localize.Accuracy{
		(&localize.Result{Hypothesis: rep.Hypothesis}).Evaluate(truth),
		localize.Score(rep.ControllerView, 1.0).Evaluate(truth),
	}, nil
}

// trial executes one end-to-end experiment: deploy the policy onto a
// fresh fabric, inject n object faults drawn among the deployed objects,
// record changeNoise unrelated change-log entries, and analyze the
// fabric. It returns the report and the faults' ground truth. Every
// change-log entry lands moments after the fabric is created, well inside
// the analysis' window.
func trial(pol *policy.Policy, tp *topo.Topology, rng *rand.Rand, n int) (*scout.Report, []object.Ref, error) {
	f, err := fabric.New(pol, tp, fabric.Options{TCAMCapacity: trialCapacity, Seed: rng.Int63()})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Deploy(); err != nil {
		return nil, nil, err
	}

	// Sample the fault scenario among deployed objects, the union of the
	// footprint's risk lists: the fabric finds each fault's rules itself.
	var candidates []object.Ref
	for _, risks := range f.Deployment().Footprint.Risks {
		candidates = append(candidates, risks...)
	}
	object.SortRefs(candidates)
	candidates = slices.Compact(candidates)
	sc, err := workload.NewScenario(rng, candidates, n, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, flt := range sc.Faults {
		if _, err := f.InjectObjectFault(flt.Ref, flt.Fraction); err != nil {
			return nil, nil, err
		}
	}
	// Noise: healthy objects with recent change-log entries.
	perm := rng.Perm(len(candidates))
	noisy := 0
	truth := object.NewSet(sc.GroundTruth...)
	for _, i := range perm {
		if noisy >= changeNoise {
			break
		}
		if truth.Has(candidates[i]) {
			continue
		}
		f.RecordChange(faultlog.OpModify, candidates[i], "unrelated operator action")
		noisy++
	}

	rep, err := scout.NewAnalyzer().Analyze(f)
	return rep, sc.GroundTruth, err
}
