// Datacenter runs the SCOUT pipeline against a production-like policy
// (hundreds of EPGs, heavy risk sharing, calibrated to the paper's
// cluster statistics) with several simultaneous, heterogeneous faults:
// an evicted filter, a partial EPG fault, and a disconnected switch that
// misses a policy change.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	"scout"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A mid-size production-like policy (scaled down from the paper's
	// cluster so the example finishes in seconds).
	spec := scout.ProductionWorkloadSpec()
	spec.EPGs = 150
	spec.Contracts = 100
	spec.Filters = 50
	spec.TargetPairs = 1500
	spec.Switches = 12

	pol, topo, err := scout.GenerateWorkload(spec, 2018)
	if err != nil {
		return err
	}
	st := pol.Stats()
	fmt.Printf("generated policy: %d VRFs, %d EPGs, %d contracts, %d filters, %d EPG pairs\n",
		st.VRFs, st.EPGs, st.Contracts, st.Filters, st.EPGPairs)

	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 99})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}

	// Fault 1: full object fault on a filter (e.g. a software bug dropped
	// it from every switch agent's logical view). Scan for a filter that
	// actually has deployed rules.
	for i := scout.ObjectID(0); i < 50; i++ {
		ref := scout.FilterRef(5000 + i)
		removed, err := f.InjectObjectFault(ref, 1.0)
		if err != nil {
			return err
		}
		if removed > 0 {
			fmt.Printf("fault 1: full fault on %s (%d rules lost)\n", ref, removed)
			break
		}
	}
	// Fault 2: partial fault on an EPG — only some of its rule instances
	// are lost (the regime SCORE's threshold misses).
	for i := scout.ObjectID(0); i < 150; i++ {
		ref := scout.EPGRef(1000 + i)
		removed, err := f.InjectObjectFault(ref, 0.4)
		if err != nil {
			return err
		}
		if removed > 0 {
			fmt.Printf("fault 2: partial fault on %s (%d rules lost)\n", ref, removed)
			break
		}
	}
	// Fault 3: switch 3 disconnects, then a policy change passes it by.
	// Attach the new filter to a contract that certainly has bindings.
	boundContract := pol.Bindings[0].Contract
	if err := f.Disconnect(3); err != nil {
		return err
	}
	if err := f.AddFilter(scout.Filter{ID: 9999, Name: "emergency-allow", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 8443),
	}}); err != nil {
		return err
	}
	if err := f.AddFilterToContract(boundContract, 9999); err != nil {
		return err
	}
	fmt.Printf("fault 3: switch 3 offline while filter:9999 joined contract:%d\n", boundContract)

	report, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(report.Summary())

	fmt.Println("\nper-switch view (inconsistent switches only):")
	for _, sr := range report.Switches {
		if sr.Equivalent {
			continue
		}
		fmt.Printf("  switch %d: %d missing rules, local hypothesis %v\n",
			sr.Switch, len(sr.MissingRules), sr.Result.Hypothesis)
	}
	fmt.Printf("\nanalysis wall-clock: %v\n", report.Elapsed)
	return nil
}
