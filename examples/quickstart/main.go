// Quickstart: build the paper's 3-tier web-service policy (Figure 1),
// deploy it on a simulated fabric, break one filter, and let SCOUT
// localize the faulty object.
//
//	go run ./examples/quickstart
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
	// 1. Express the tenant intent: Web ↔ App on port 80, App ↔ DB on
	//    ports 80 and 700 (the paper's Figure 1).
	p := scout.NewPolicy("three-tier")
	p.AddVRF(scout.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(scout.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(scout.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(scout.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(scout.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(scout.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(scout.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(scout.Filter{ID: 80, Name: "port-80/allow", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 80),
	}})
	p.AddFilter(scout.Filter{ID: 700, Name: "port-700/allow", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 700),
	}})
	p.AddContract(scout.Contract{ID: 201, Name: "Web-App", Filters: []scout.ObjectID{80}})
	p.AddContract(scout.Contract{ID: 202, Name: "App-DB", Filters: []scout.ObjectID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)

	// 2. Deploy onto the simulated fabric (controller → agents → TCAM).
	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: 1})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	fmt.Println("deployed 3-tier policy across 3 switches")

	// 3. Break filter 700: every TCAM rule derived from it vanishes (a
	//    full object fault), silently breaking App ↔ DB on port 700.
	removed, err := f.InjectObjectFault(scout.FilterRef(700), 1.0)
	if err != nil {
		return err
	}
	fmt.Printf("injected fault: filter:700 lost %d TCAM rules\n\n", removed)

	// 4. Run the SCOUT pipeline: collect TCAMs, check them against the
	//    policy, localize faulty objects, correlate root causes.
	report, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())
	fmt.Printf("\nanalysis took %v across %d switches\n", report.Elapsed, len(report.Switches))
	return nil
}
