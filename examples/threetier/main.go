// Threetier reproduces the paper's §V-B use cases end to end on the
// 3-tier web-service policy:
//
//	UC1 — TCAM overflow: a stream of new filters overflows a switch's
//	      TCAM; SCOUT localizes the undeployed filters and the
//	      correlation engine tags them with the overflow fault.
//	UC2 — Unresponsive switch: a switch silently drops controller
//	      instructions during an 'add filter' push; SCOUT localizes the
//	      missing filter and names the unreachable switch as root cause.
//	UC3 — Too many missing rules: a large policy lands on the
//	      unresponsive switch; thousands of rules go missing but the
//	      hypothesis collapses to the single faulty switch.
//
//	go run ./examples/threetier
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
	fmt.Println("=== UC1: TCAM overflow ===")
	if err := tcamOverflow(); err != nil {
		return err
	}
	fmt.Println("\n=== UC2: unresponsive switch ===")
	if err := unresponsiveSwitch(); err != nil {
		return err
	}
	fmt.Println("\n=== UC3: too many missing rules ===")
	return tooManyMissingRules()
}

// threeTier builds the Figure 1 policy.
func threeTier() *scout.Policy {
	p := scout.NewPolicy("three-tier")
	p.AddVRF(scout.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(scout.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(scout.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(scout.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(scout.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(scout.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(scout.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(scout.Filter{ID: 80, Name: "port-80", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 80),
	}})
	p.AddContract(scout.Contract{ID: 201, Name: "Web-App", Filters: []scout.ObjectID{80}})
	p.AddContract(scout.Contract{ID: 202, Name: "App-DB", Filters: []scout.ObjectID{80}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	return p
}

// tcamOverflow mimics the paper's dynamic policy change: filters are
// added to Contract:App-DB one after another until the switch TCAM
// overflows and rule installation goes incomplete.
func tcamOverflow() error {
	p := threeTier()
	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{
		Seed:         1,
		TCAMCapacity: 16, // tiny ACL TCAM to force overflow
	})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	// Continuously add one new filter after another (paper §V-B).
	for i := 0; i < 12; i++ {
		id := scout.ObjectID(1000 + i)
		if err := f.AddFilter(scout.Filter{
			ID:      id,
			Name:    fmt.Sprintf("svc-port-%d", 9000+i),
			Entries: []scout.FilterEntry{scout.PortEntry(scout.ProtoTCP, uint16(9000+i))},
		}); err != nil {
			return err
		}
		if err := f.AddFilterToContract(202, id); err != nil {
			return err
		}
	}
	report, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())
	return nil
}

// unresponsiveSwitch makes switch 2 silently drop controller traffic
// while a new filter is pushed.
func unresponsiveSwitch() error {
	p := threeTier()
	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: 2})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	if err := f.Disconnect(2); err != nil {
		return err
	}
	if err := f.AddFilter(scout.Filter{ID: 443, Name: "port-443", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 443),
	}}); err != nil {
		return err
	}
	if err := f.AddFilterToContract(202, 443); err != nil {
		return err
	}
	report, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())
	return nil
}

// tooManyMissingRules pushes a large policy onto an unresponsive switch:
// the equivalence checker reports a flood of missing rules, and SCOUT
// collapses them to the switch itself.
func tooManyMissingRules() error {
	// A larger generated policy concentrated on few switches.
	spec := scout.TestbedWorkloadSpec()
	spec.EPGs = 80
	spec.Contracts = 60
	spec.Filters = 30
	spec.TargetPairs = 400
	spec.Switches = 4
	p, topo, err := scout.GenerateWorkload(spec, 7)
	if err != nil {
		return err
	}
	f, err := scout.NewFabric(p, topo, scout.FabricOptions{Seed: 3})
	if err != nil {
		return err
	}
	// Switch 1 is down from the start: it misses the entire deployment.
	if err := f.Disconnect(1); err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}
	report, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		return err
	}
	fmt.Printf("missing rules reported by the checker: %d\n", report.TotalMissing)
	fmt.Print(report.Summary())
	return nil
}
