// Forensics demonstrates post-incident analysis with the state collector
// and a persistent analysis session: TCAM state is snapshotted into
// epochs on a schedule and continuously verified by a scout.Session, a
// scripted incident (JSON scenario) unfolds between collections, and the
// operator reconstructs what happened — diffing epochs and re-verifying
// only the switches the incident touched (the session replays cached
// verdicts for the rest).
//
//	go run ./examples/forensics
package main

import (
	"fmt"
	"log"

	"scout"
)

// incident is the replayable trouble-ticket artifact: switch 2 loses its
// control channel, then a filter rollout passes it by, and a TCAM
// corruption silently damages switch 1.
const incident = `{
  "name": "ticket-4711: intermittent drops after https rollout",
  "steps": [
    {"op": "disconnect", "switch": 2},
    {"op": "add-filter", "filter": {"id": 8443, "name": "alt-https", "proto": 6, "portLo": 8443, "portHi": 8443}},
    {"op": "attach-filter", "contract": 202, "filterId": 8443},
    {"op": "reconnect", "switch": 2},
    {"op": "corrupt", "switch": 1, "count": 1, "field": "vrf"}
  ]
}`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The 3-tier policy from the paper's Figure 1.
	p := scout.NewPolicy("three-tier")
	p.AddVRF(scout.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(scout.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(scout.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(scout.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(scout.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(scout.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(scout.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(scout.Filter{ID: 80, Name: "http", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 80),
	}})
	p.AddContract(scout.Contract{ID: 201, Name: "Web-App", Filters: []scout.ObjectID{80}})
	p.AddContract(scout.Contract{ID: 202, Name: "App-DB", Filters: []scout.ObjectID{80}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)

	f, err := scout.NewFabric(p, scout.TopologyFromPolicy(p), scout.FabricOptions{Seed: 4711})
	if err != nil {
		return err
	}
	if err := f.Deploy(); err != nil {
		return err
	}

	// Periodic collection feeding a persistent session: the baseline
	// epoch is fully verified (cold run) and its verdicts cached.
	sess, err := scout.NewSession(f)
	if err != nil {
		return err
	}
	collector := scout.NewCollector(f, 0)
	baseline := collector.Snapshot()
	baseRep, err := sess.AnalyzeEpoch(baseline)
	if err != nil {
		return err
	}
	fmt.Printf("epoch %d collected: %d rules (baseline, consistent=%v)\n",
		baseline.Seq, baseline.RuleCount(), baseRep.Consistent)

	// The incident unfolds (replayed from the ticket's scenario JSON).
	sc, err := scout.ParseScenario([]byte(incident))
	if err != nil {
		return err
	}
	if _, err := sc.Run(f); err != nil {
		return err
	}
	incidentEpoch := collector.Snapshot()
	fmt.Printf("epoch %d collected: %d rules (post-incident)\n\n",
		incidentEpoch.Seq, incidentEpoch.RuleCount())

	// Forensics step 1: what changed between epochs?
	fmt.Println("epoch diff (baseline → post-incident):")
	for _, delta := range scout.DiffEpochs(baseline, incidentEpoch) {
		fmt.Printf("  switch %d: +%d rules, -%d rules\n",
			delta.Switch, len(delta.Added), len(delta.Removed))
	}

	// Forensics step 2: delta re-verification of the post-incident epoch.
	// The session re-checks only the switches whose logical or TCAM rules
	// changed and replays the cached baseline verdicts for the rest; the
	// report is byte-identical to a cold full analysis.
	report, err := sess.AnalyzeEpoch(incidentEpoch)
	if err != nil {
		return err
	}
	fmt.Printf("\ndelta re-verification: re-checked %d/%d switches (%d replayed from cache)\n\n",
		report.Trace.Checked, len(report.Switches), report.Trace.Replayed)
	fmt.Print(report.Summary())
	// The session backs the view with a copy-on-write overlay over its
	// cached pristine model; the printed counts include the overlay's
	// failure marks.
	fmt.Printf("\ncontroller risk view: %s\n", report.ControllerView)

	// Forensics step 3: localization trace for the ticket.
	if report.Controller != nil {
		fmt.Println("\nlocalization trace:")
		for i, step := range report.Controller.Steps {
			fmt.Printf("  round %d: picked %v (covered %d observations)\n",
				i+1, step.Picked, step.Coverage)
		}
		if len(report.Controller.ChangeLogPicks) > 0 {
			fmt.Printf("  change-log stage added: %v\n", report.Controller.ChangeLogPicks)
		}
	}
	return nil
}
