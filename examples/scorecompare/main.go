// Scorecompare contrasts SCOUT with the SCORE baseline on the same
// failure signature, demonstrating the paper's central accuracy claim:
// SCORE's fixed hit-ratio threshold misses partial object faults, while
// SCOUT's change-log stage recovers them.
//
//	go run ./examples/scorecompare
package main

import (
	"flag"
	"fmt"
	"log"

	"scout"
)

// workers shards the per-switch equivalence checks (0 = GOMAXPROCS).
var workers = flag.Int("workers", 0, "parallel per-switch equivalence checkers (0 = GOMAXPROCS, 1 = serial)")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec := scout.ProductionWorkloadSpec()
	spec.EPGs = 150
	spec.Contracts = 100
	spec.Filters = 50
	spec.TargetPairs = 1500
	spec.Switches = 10

	pol, topo, err := scout.GenerateWorkload(spec, 7)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 7})
	if err != nil {
		return err
	}
	since := f.Now()
	if err := f.Deploy(); err != nil {
		return err
	}

	// Ground truth: one full fault on a filter and one partial fault on a
	// contract. Not every generated object ends up with deployed rules,
	// so scan until each injection actually removes something.
	full, err := injectFirst(f, 1.0, func(i scout.ObjectID) scout.ObjectRef {
		return scout.FilterRef(5000 + i)
	})
	if err != nil {
		return err
	}
	partial, err := injectFirst(f, 0.3, func(i scout.ObjectID) scout.ObjectRef {
		return scout.ContractRef(3000 + i)
	})
	if err != nil {
		return err
	}
	groundTruth := []scout.ObjectRef{full, partial}
	fmt.Printf("injected faults (ground truth): full %s, partial %s\n\n", full, partial)

	// Shared pipeline front half: the analyzer checks every switch and
	// marks the controller risk view its SCOUT run localized on, so SCOUT
	// and SCORE run on identical inputs.
	report, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: *workers}).Analyze(f)
	if err != nil {
		return err
	}
	model := report.ControllerView
	fmt.Printf("annotated view: %s\n", model)
	fmt.Printf("failure signature: %d observations, %d suspect objects\n\n",
		len(model.FailureSignature()), len(model.SuspectSet()))

	oracle := scout.ChangeLogOracle{Log: f.ChangeLog(), Since: since}
	show("SCOUT", scout.Localize(model, oracle), groundTruth)
	show("SCORE-1.0", scout.LocalizeSCORE(model, 1.0), groundTruth)
	show("SCORE-0.6", scout.LocalizeSCORE(model, 0.6), groundTruth)
	return nil
}

// injectFirst injects a fault into the first object (by candidate index)
// that actually has deployed rules, returning its ref.
func injectFirst(f *scout.Fabric, fraction float64, candidate func(scout.ObjectID) scout.ObjectRef) (scout.ObjectRef, error) {
	for i := scout.ObjectID(0); i < 50; i++ {
		ref := candidate(i)
		removed, err := f.InjectObjectFault(ref, fraction)
		if err != nil {
			return scout.ObjectRef{}, err
		}
		if removed > 0 {
			return ref, nil
		}
	}
	return scout.ObjectRef{}, fmt.Errorf("no candidate object with deployed rules")
}

func show(name string, res *scout.LocalizationResult, truth []scout.ObjectRef) {
	acc := res.Evaluate(truth)
	fmt.Printf("%-10s hypothesis=%v\n", name, res.Hypothesis)
	fmt.Printf("%-10s precision=%.2f recall=%.2f unexplained=%d\n\n",
		"", acc.Precision, acc.Recall, len(res.Unexplained))
}
