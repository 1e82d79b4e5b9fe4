// Package scenario executes declarative fault scenarios against a
// deployment fabric. A scenario is a JSON list of steps (deploy, policy
// changes, fault injections) that reproduces an incident deterministically
// — the repro artifact an operator attaches to a trouble ticket, and the
// format cmd/scout replays with -scenario.
//
// Example:
//
//	{
//	  "name": "unresponsive switch during filter push",
//	  "steps": [
//	    {"op": "deploy"},
//	    {"op": "disconnect", "switch": 2},
//	    {"op": "add-filter", "filter": {"id": 443, "proto": 6, "portLo": 443, "portHi": 443}},
//	    {"op": "attach-filter", "contract": 202, "filterId": 443}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"fmt"

	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// FilterSpec describes a filter created by an add-filter step.
type FilterSpec struct {
	ID     object.ID     `json:"id"`
	Name   string        `json:"name,omitempty"`
	Proto  rule.Protocol `json:"proto"`
	PortLo uint16        `json:"portLo"`
	PortHi uint16        `json:"portHi"`
}

// Step is one scenario action. Which fields apply depends on Op.
type Step struct {
	// Op selects the action: deploy, disconnect, reconnect, crash-agent,
	// restart-agent, inject, add-filter, attach-filter, detach-filter,
	// bind, corrupt, evict.
	Op string `json:"op"`

	// Switch targets switch-scoped ops (disconnect, corrupt, evict, …).
	Switch object.ID `json:"switch,omitempty"`

	// Object and Fraction configure inject (object fault) steps. Object
	// uses the "kind:id" syntax of object.ParseRef; Fraction defaults
	// to 1 (full fault).
	Object   string  `json:"object,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`

	// Filter describes the filter an add-filter step creates.
	Filter *FilterSpec `json:"filter,omitempty"`

	// Contract and FilterID name the objects of attach-filter /
	// detach-filter; From/To/Contract those of bind.
	Contract object.ID `json:"contract,omitempty"`
	FilterID object.ID `json:"filterId,omitempty"`
	From     object.ID `json:"from,omitempty"`
	To       object.ID `json:"to,omitempty"`

	// Count and Field configure corrupt/evict steps (a corrupt count is at
	// most 4096). Field is one of vrf, src, dst, port (corrupt only).
	Count int    `json:"count,omitempty"`
	Field string `json:"field,omitempty"`
}

// Scenario is a named, ordered list of steps.
type Scenario struct {
	Name  string `json:"name"`
	Steps []Step `json:"steps"`
}

// Parse decodes and validates a JSON scenario.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	for i := range s.Steps {
		if err := s.Steps[i].validate(); err != nil {
			return nil, fmt.Errorf("scenario %q step %d: %w", s.Name, i, err)
		}
	}
	return &s, nil
}

func (st *Step) validate() error {
	switch st.Op {
	case "deploy", "reconnect", "restart-agent", "disconnect", "crash-agent":
	case "inject":
		if st.Object == "" {
			return fmt.Errorf("inject requires object")
		}
		if _, err := object.ParseRef(st.Object); err != nil {
			return err
		}
		if st.Fraction < 0 || st.Fraction > 1 {
			return fmt.Errorf("fraction %v out of [0,1]", st.Fraction)
		}
	case "add-filter":
		if st.Filter == nil {
			return fmt.Errorf("add-filter requires filter")
		}
		if st.Filter.PortLo > st.Filter.PortHi {
			return fmt.Errorf("filter port range inverted")
		}
	case "attach-filter", "detach-filter":
		if st.Contract == 0 || st.FilterID == 0 {
			return fmt.Errorf("%s requires contract and filterId", st.Op)
		}
	case "bind":
		if st.From == 0 || st.To == 0 || st.Contract == 0 {
			return fmt.Errorf("bind requires from, to and contract")
		}
	case "corrupt":
		if _, err := corruptionField(st.Field); err != nil {
			return err
		}
		if st.Count > maxCorruptCount {
			return fmt.Errorf("corrupt count %d over %d", st.Count, maxCorruptCount)
		}
	case "evict":
	default:
		return fmt.Errorf("unknown op %q", st.Op)
	}
	return nil
}

// maxCorruptCount bounds a corrupt step's count. A corruption rewrites an
// entry in place and never shrinks the table, so the step runs every
// iteration it is asked for, however few entries the switch holds.
const maxCorruptCount = 4096

func corruptionField(name string) (tcam.CorruptionField, error) {
	switch name {
	case "", "vrf":
		return tcam.CorruptVRF, nil
	case "src":
		return tcam.CorruptSrcEPG, nil
	case "dst":
		return tcam.CorruptDstEPG, nil
	case "port":
		return tcam.CorruptPort, nil
	default:
		return 0, fmt.Errorf("unknown corruption field %q", name)
	}
}

// Result summarizes a scenario run.
type Result struct {
	// StepsRun counts executed steps.
	StepsRun int
	// RulesRemoved accumulates TCAM rules removed by inject/evict steps.
	RulesRemoved int
	// RulesCorrupted accumulates entries damaged by corrupt steps.
	RulesCorrupted int
}

// Run executes the scenario against the fabric, stopping at the first
// failing step.
func (s *Scenario) Run(f *fabric.Fabric) (*Result, error) {
	res := &Result{}
	for i, st := range s.Steps {
		if err := runStep(f, st, res); err != nil {
			return res, fmt.Errorf("scenario %q step %d (%s): %w", s.Name, i, st.Op, err)
		}
		res.StepsRun++
	}
	return res, nil
}

func runStep(f *fabric.Fabric, st Step, res *Result) error {
	switch st.Op {
	case "deploy":
		return f.Deploy()
	case "disconnect":
		return f.Disconnect(st.Switch)
	case "reconnect":
		return f.Reconnect(st.Switch)
	case "crash-agent":
		return f.CrashAgent(st.Switch)
	case "restart-agent":
		return f.RestartAgent(st.Switch)
	case "inject":
		ref, err := object.ParseRef(st.Object)
		if err != nil {
			return err
		}
		fraction := st.Fraction
		if fraction == 0 {
			fraction = 1
		}
		n, err := f.InjectObjectFault(ref, fraction)
		res.RulesRemoved += n
		return err
	case "add-filter":
		return f.AddFilter(policy.Filter{
			ID:   st.Filter.ID,
			Name: st.Filter.Name,
			Entries: []policy.FilterEntry{{
				Proto:  st.Filter.Proto,
				PortLo: st.Filter.PortLo,
				PortHi: st.Filter.PortHi,
				Action: rule.Allow,
			}},
		})
	case "attach-filter":
		return f.AddFilterToContract(st.Contract, st.FilterID)
	case "detach-filter":
		return f.RemoveFilterFromContract(st.Contract, st.FilterID)
	case "bind":
		return f.AddBinding(st.From, st.To, st.Contract)
	case "corrupt":
		field, err := corruptionField(st.Field)
		if err != nil {
			return err
		}
		count := st.Count
		if count <= 0 {
			count = 1
		}
		damaged, err := f.CorruptTCAM(st.Switch, count, field)
		res.RulesCorrupted += len(damaged)
		return err
	case "evict":
		count := st.Count
		if count <= 0 {
			count = 1
		}
		evicted, err := f.EvictTCAM(st.Switch, count)
		res.RulesRemoved += len(evicted)
		return err
	default:
		return fmt.Errorf("unknown op %q", st.Op)
	}
}
