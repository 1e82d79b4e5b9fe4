// Package scenario executes declarative fault scenarios against a
// deployment fabric. A scenario is a JSON list of steps (deploy, policy
// changes, fault injections, analyses) that reproduces an incident
// deterministically — the repro artifact an operator attaches to a trouble
// ticket, and the format cmd/scout replays with -scenario. A scenario
// deploys itself: its steps run on a fabric nothing has deployed yet, so a
// fault may come before the first deploy (a switch down from the start) or
// after it.
//
// An analyze step hands the fabric as it stands to the caller's analysis
// (Run's analyze callback), so one file can state an incident's report and
// then its heal's.
//
// A scenario may state its answer in an optional expect block: the
// hypothesis, as object refs, and the root causes, as correlate's
// signatures on switches. The file's block is the answer after the last
// step; an analyze step may carry its own, and no other step may.
// Expect.Check compares each with a report's as an exact set.
//
// Example:
//
//	{
//	  "name": "unresponsive switch during filter push, then redeployed",
//	  "steps": [
//	    {"op": "deploy"},
//	    {"op": "disconnect", "switch": 2},
//	    {"op": "add-filter", "filter": {"id": 443, "proto": 6, "portLo": 443, "portHi": 443}},
//	    {"op": "attach-filter", "contract": 202, "filterId": 443},
//	    {"op": "analyze", "expect": {
//	      "hypothesis": ["contract:202", "filter:443"],
//	      "causes": [{"signature": "unresponsive-switch", "switch": 2}]
//	    }},
//	    {"op": "reconnect", "switch": 2},
//	    {"op": "deploy"}
//	  ],
//	  "expect": {"hypothesis": [], "causes": []}
//	}
package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"scout/internal/correlate"
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
	// bind, corrupt, evict, analyze.
	Op string `json:"op"`

	// Switch targets switch-scoped ops (disconnect, corrupt, evict, …).
	Switch object.ID `json:"switch,omitempty"`

	// Object and Fraction configure inject (object fault) steps. Object
	// uses the "kind:id" syntax of object.ParseRef; Fraction lies in
	// (0,1], and an absent one is 1 (full fault).
	Object   string   `json:"object,omitempty"`
	Fraction *float64 `json:"fraction,omitempty"`

	// Filter describes the filter an add-filter step creates.
	Filter *FilterSpec `json:"filter,omitempty"`

	// Contract and FilterID name the objects of attach-filter /
	// detach-filter; From/To/Contract those of bind.
	Contract object.ID `json:"contract,omitempty"`
	FilterID object.ID `json:"filterId,omitempty"`
	From     object.ID `json:"from,omitempty"`
	To       object.ID `json:"to,omitempty"`

	// Count and Field configure corrupt/evict steps (a count is never
	// negative, 0 means 1, and a corrupt count is at most 4096). Field is
	// one of vrf, src, dst, port (corrupt only).
	Count int    `json:"count,omitempty"`
	Field string `json:"field,omitempty"`

	// Expect, on an analyze step alone, is the answer its analysis should
	// give.
	Expect *Expect `json:"expect,omitempty"`
}

// Scenario is a named, ordered list of steps, and optionally the answer
// an analysis of the fabric they leave should give.
type Scenario struct {
	Name   string  `json:"name"`
	Steps  []Step  `json:"steps"`
	Expect *Expect `json:"expect,omitempty"`
}

// Expect is a scenario's stated answer.
type Expect struct {
	// Hypothesis lists the faulty objects in object.ParseRef's "kind:id"
	// syntax.
	Hypothesis []string `json:"hypothesis"`
	// Causes lists the ranked root causes.
	Causes []Cause `json:"causes"`
}

// Cause is one root cause: a fault class's signature (correlate's
// TCAMOverflow, UnresponsiveSwitch or AgentCrash) on a switch.
type Cause struct {
	Signature string    `json:"signature"`
	Switch    object.ID `json:"switch"`
}

func (c Cause) String() string { return fmt.Sprintf("%s@switch:%d", c.Signature, c.Switch) }

// Parse decodes and validates a JSON scenario: one object, whose every
// field, and every step's, is one the format defines, so a misspelled
// field fails instead of silently changing what the scenario does.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: decode: trailing data after the scenario")
	}
	for i := range s.Steps {
		if err := s.Steps[i].Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q step %d: %w", s.Name, i, err)
		}
	}
	if s.Expect != nil {
		if err := s.Expect.validate(); err != nil {
			return nil, fmt.Errorf("scenario %q expect: %w", s.Name, err)
		}
	}
	return &s, nil
}

func (e *Expect) validate() error {
	for _, ref := range e.Hypothesis {
		if _, err := object.ParseRef(ref); err != nil {
			return err
		}
	}
	for _, c := range e.Causes {
		switch c.Signature {
		case correlate.TCAMOverflow, correlate.UnresponsiveSwitch, correlate.AgentCrash:
		default:
			return fmt.Errorf("unknown signature %q", c.Signature)
		}
		if c.Switch == 0 {
			return fmt.Errorf("cause %q names no switch", c.Signature)
		}
	}
	return nil
}

// Check compares a report's hypothesis and correlation (nil for a
// consistent report) with e, each as an exact set, and returns an error
// naming both answers when they differ.
func (e *Expect) Check(hypothesis []object.Ref, rc *correlate.Report) error {
	var causes []Cause
	if rc != nil {
		for _, c := range rc.RootCauses {
			causes = append(causes, Cause{Signature: c.Signature, Switch: c.Switch})
		}
	}
	want := make([]object.Ref, len(e.Hypothesis))
	for i, ref := range e.Hypothesis {
		want[i], _ = object.ParseRef(ref) // Parse refused any other
	}
	if got, want := answer(hypothesis, causes), answer(want, e.Causes); got != want {
		return fmt.Errorf("got %s; want %s", got, want)
	}
	return nil
}

// answer renders a hypothesis and causes as sets: sorted, each once.
func answer(hypothesis []object.Ref, causes []Cause) string {
	refs, cs := slices.Clone(hypothesis), slices.Clone(causes)
	object.SortRefs(refs)
	slices.SortFunc(cs, func(a, b Cause) int {
		return cmp.Or(cmp.Compare(a.Switch, b.Switch), strings.Compare(a.Signature, b.Signature))
	})
	return fmt.Sprintf("hypothesis %v, causes %v", slices.Compact(refs), slices.Compact(cs))
}

// Validate refuses a step Run could not carry out as written: an unknown
// op, a field the op needs missing or out of range, or an expect on any op
// but analyze.
func (st *Step) Validate() error {
	if st.Expect != nil && st.Op != "analyze" {
		return fmt.Errorf("%s takes no expect; only an analyze step does", st.Op)
	}
	switch st.Op {
	case "deploy":
	case "analyze":
		if st.Expect != nil {
			return st.Expect.validate()
		}
	case "disconnect", "reconnect", "crash-agent", "restart-agent":
		return st.needsSwitch()
	case "inject":
		if st.Object == "" {
			return fmt.Errorf("inject requires object")
		}
		if _, err := object.ParseRef(st.Object); err != nil {
			return err
		}
		if st.Fraction != nil && !(*st.Fraction > 0 && *st.Fraction <= 1) {
			return fmt.Errorf("fraction %v out of (0,1]", *st.Fraction)
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
		fallthrough
	case "evict":
		if st.Count < 0 {
			return fmt.Errorf("%s count %d is negative", st.Op, st.Count)
		}
		return st.needsSwitch()
	default:
		return fmt.Errorf("unknown op %q", st.Op)
	}
	return nil
}

// needsSwitch refuses a switch-scoped step that names no switch, which
// would otherwise fail only mid-replay, after earlier steps had changed
// the fabric.
func (st *Step) needsSwitch() error {
	if st.Switch == 0 {
		return fmt.Errorf("%s requires switch", st.Op)
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
// failing step. An analyze step calls analyze with the step's expect (nil
// when it states none), and an error analyze returns fails the step; a
// scenario with no analyze step may pass a nil analyze.
func (s *Scenario) Run(f *fabric.Fabric, analyze func(*Expect) error) (*Result, error) {
	res := &Result{}
	for i, st := range s.Steps {
		if err := runStep(f, st, res, analyze); err != nil {
			return res, fmt.Errorf("scenario %q step %d (%s): %w", s.Name, i, st.Op, err)
		}
		res.StepsRun++
	}
	return res, nil
}

func runStep(f *fabric.Fabric, st Step, res *Result, analyze func(*Expect) error) error {
	switch st.Op {
	case "deploy":
		return f.Deploy()
	case "analyze":
		return analyze(st.Expect)
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
		fraction := 1.0
		if st.Fraction != nil {
			fraction = *st.Fraction
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
		damaged, err := f.CorruptTCAM(st.Switch, max(st.Count, 1), field)
		res.RulesCorrupted += len(damaged)
		return err
	case "evict":
		evicted, err := f.EvictTCAM(st.Switch, max(st.Count, 1))
		res.RulesRemoved += len(evicted)
		return err
	default:
		return fmt.Errorf("unknown op %q", st.Op)
	}
}
