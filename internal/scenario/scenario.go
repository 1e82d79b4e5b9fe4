// Package scenario executes declarative fault scenarios against a
// deployment fabric. A scenario is a JSON list of steps that reproduces an
// incident deterministically — the repro artifact an operator attaches to
// a trouble ticket, and the format cmd/scout replays with -scenario. Its
// vocabulary is the ops table: one row per op, naming the fields a step of
// it reads, its check and its action, so a new op is a new row. A scenario
// deploys itself: its steps run on a fabric nothing has deployed yet, so a
// fault may come before the first deploy (a switch down from the start) or
// after it. An analyze step hands the fabric as it stands to the caller's
// analysis (Run's analyze callback), so one file can state an incident's
// report and then its heal's.
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
	"reflect"
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

// Step is one scenario action. Validate refuses a step that sets a field
// its op's row does not list.
type Step struct {
	// Op names the step's row of the vocabulary, the ops table: deploy,
	// analyze, disconnect, reconnect, crash-agent, restart-agent, inject,
	// add-filter, attach-filter, detach-filter, bind, corrupt, evict. A new
	// op is a new row.
	Op     string    `json:"op"`
	Switch object.ID `json:"switch,omitempty"`
	// Object uses the "kind:id" syntax of object.ParseRef. Fraction lies
	// in (0,1], and an absent one is 1 (a full object fault).
	Object   string      `json:"object,omitempty"`
	Fraction *float64    `json:"fraction,omitempty"`
	Filter   *FilterSpec `json:"filter,omitempty"`
	Contract object.ID   `json:"contract,omitempty"`
	FilterID object.ID   `json:"filterId,omitempty"`
	From     object.ID   `json:"from,omitempty"`
	To       object.ID   `json:"to,omitempty"`
	// Count is never negative, 0 means 1, and a corrupt count is at most
	// 4096. Field is one of vrf (the default), src, dst, port.
	Count int    `json:"count,omitempty"`
	Field string `json:"field,omitempty"`
	// Expect is the answer an analyze step's analysis should give.
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
	if err := s.Expect.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q expect: %w", s.Name, err)
	}
	return &s, nil
}

// validate refuses a ref or a cause Check could not compare; a nil
// expect states nothing to refuse.
func (e *Expect) validate() error {
	if e == nil {
		return nil
	}
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

// Validate refuses a step Run could not carry out as written: an expect on
// any op but analyze, an unknown op, a field its op does not read, or one
// it needs missing or out of range.
func (st *Step) Validate() error {
	if st.Expect != nil && st.Op != "analyze" {
		return fmt.Errorf("%s takes no expect; only an analyze step does", st.Op)
	}
	o, ok := ops[st.Op]
	if !ok {
		return fmt.Errorf("unknown op %q", st.Op)
	}
	// A step sets the fields its JSON carries: all but Op are omitempty.
	v := reflect.ValueOf(*st)
	for i := 1; i < v.NumField(); i++ {
		name := strings.TrimSuffix(v.Type().Field(i).Tag.Get("json"), ",omitempty")
		if !v.Field(i).IsZero() && !slices.Contains(o.fields, name) {
			return fmt.Errorf("%s does not read %s", st.Op, name)
		}
	}
	if o.check == nil {
		return nil
	}
	return o.check(st)
}

// An op is one row of the scenario vocabulary: the fields a step of it
// reads beside op, by their JSON names; the check Validate then runs, if
// any; and the action Run takes on a step Validate passed.
type op struct {
	fields []string
	check  func(*Step) error
	act    func(r run, st *Step) error
}

// A run is what an action works on: the fabric, the result it adds to,
// and Run's analyze callback.
type run struct {
	f       *fabric.Fabric
	res     *Result
	analyze func(*Expect) error
}

// ops is the scenario vocabulary, one row per op: Validate and Run read
// nothing else, so a new op is a new row.
var ops = map[string]op{
	"deploy": {act: func(r run, _ *Step) error { return r.f.Deploy() }},
	"analyze": {fields: []string{"expect"}, check: func(st *Step) error { return st.Expect.validate() },
		act: func(r run, st *Step) error { return r.analyze(st.Expect) }},
	"disconnect":    onSwitch((*fabric.Fabric).Disconnect),
	"reconnect":     onSwitch((*fabric.Fabric).Reconnect),
	"crash-agent":   onSwitch((*fabric.Fabric).CrashAgent),
	"restart-agent": onSwitch((*fabric.Fabric).RestartAgent),
	"inject": {fields: []string{"object", "fraction"}, check: func(st *Step) error {
		if st.Object == "" {
			return fmt.Errorf("inject requires object")
		}
		if _, err := object.ParseRef(st.Object); err != nil {
			return err
		}
		if st.Fraction != nil && !(*st.Fraction > 0 && *st.Fraction <= 1) {
			return fmt.Errorf("fraction %v out of (0,1]", *st.Fraction)
		}
		return nil
	}, act: func(r run, st *Step) error {
		ref, _ := object.ParseRef(st.Object)
		fraction := 1.0
		if st.Fraction != nil {
			fraction = *st.Fraction
		}
		n, err := r.f.InjectObjectFault(ref, fraction)
		r.res.RulesRemoved += n
		return err
	}},
	"add-filter": {fields: []string{"filter"}, check: func(st *Step) error {
		if st.Filter == nil {
			return fmt.Errorf("add-filter requires filter")
		}
		if st.Filter.PortLo > st.Filter.PortHi {
			return fmt.Errorf("filter port range inverted")
		}
		return nil
	}, act: func(r run, st *Step) error {
		fs := st.Filter
		return r.f.AddFilter(policy.Filter{ID: fs.ID, Name: fs.Name, Entries: []policy.FilterEntry{
			{Proto: fs.Proto, PortLo: fs.PortLo, PortHi: fs.PortHi, Action: rule.Allow}}})
	}},
	"attach-filter": onFilter((*fabric.Fabric).AddFilterToContract),
	"detach-filter": onFilter((*fabric.Fabric).RemoveFilterFromContract),
	"bind": {fields: []string{"from", "to", "contract"}, check: func(st *Step) error {
		if st.From == 0 || st.To == 0 || st.Contract == 0 {
			return fmt.Errorf("bind requires from, to and contract")
		}
		return nil
	}, act: func(r run, st *Step) error { return r.f.AddBinding(st.From, st.To, st.Contract) }},
	"corrupt": {fields: []string{"switch", "count", "field"}, check: func(st *Step) error {
		if _, ok := corruptionFields[st.Field]; !ok {
			return fmt.Errorf("unknown corruption field %q", st.Field)
		}
		if st.Count > maxCorruptCount {
			return fmt.Errorf("corrupt count %d over %d", st.Count, maxCorruptCount)
		}
		return st.needsSwitch()
	}, act: func(r run, st *Step) error {
		damaged, err := r.f.CorruptTCAM(st.Switch, max(st.Count, 1), corruptionFields[st.Field])
		r.res.RulesCorrupted += len(damaged)
		return err
	}},
	"evict": {fields: []string{"switch", "count"}, check: (*Step).needsSwitch, act: func(r run, st *Step) error {
		evicted, err := r.f.EvictTCAM(st.Switch, max(st.Count, 1))
		r.res.RulesRemoved += len(evicted)
		return err
	}},
}

// onSwitch is the row of an op that acts on the one switch it reads.
func onSwitch(act func(*fabric.Fabric, object.ID) error) op {
	return op{fields: []string{"switch"}, check: (*Step).needsSwitch,
		act: func(r run, st *Step) error { return act(r.f, st.Switch) }}
}

// onFilter is the row of an op that acts on a contract and a filter.
func onFilter(act func(f *fabric.Fabric, contract, filter object.ID) error) op {
	return op{fields: []string{"contract", "filterId"}, check: func(st *Step) error {
		if st.Contract == 0 || st.FilterID == 0 {
			return fmt.Errorf("%s requires contract and filterId", st.Op)
		}
		return nil
	}, act: func(r run, st *Step) error { return act(r.f, st.Contract, st.FilterID) }}
}

// needsSwitch refuses a switch-scoped step that names no switch, which
// would otherwise fail only mid-replay, after earlier steps had changed
// the fabric. It also refuses a negative count (0 means 1), which only
// corrupt and evict read: any other op's is 0 by then.
func (st *Step) needsSwitch() error {
	if st.Count < 0 {
		return fmt.Errorf("%s count %d is negative", st.Op, st.Count)
	}
	if st.Switch == 0 {
		return fmt.Errorf("%s requires switch", st.Op)
	}
	return nil
}

// maxCorruptCount bounds a corrupt step's count. A corruption rewrites an
// entry in place and never shrinks the table, so the step runs every
// iteration it is asked for, however few entries the switch holds.
const maxCorruptCount = 4096

// corruptionFields maps a corrupt step's field to the part of an entry it
// damages; an absent field is vrf.
var corruptionFields = map[string]tcam.CorruptionField{"": tcam.CorruptVRF, "vrf": tcam.CorruptVRF,
	"src": tcam.CorruptSrcEPG, "dst": tcam.CorruptDstEPG, "port": tcam.CorruptPort}

// Result summarizes a scenario run: the steps it ran, the TCAM rules its
// inject and evict steps removed, and the entries its corrupt steps
// damaged.
type Result struct {
	StepsRun, RulesRemoved, RulesCorrupted int
}

// Run executes the scenario against the fabric, stopping at the first
// failing step; a step that Validate refuses fails before it acts. An
// analyze step calls analyze with the step's expect (nil when it states
// none), and an error analyze returns fails the step; a scenario with no
// analyze step may pass a nil analyze.
func (s *Scenario) Run(f *fabric.Fabric, analyze func(*Expect) error) (*Result, error) {
	res := &Result{}
	for i, st := range s.Steps {
		err := st.Validate()
		if err == nil {
			err = ops[st.Op].act(run{f, res, analyze}, &st)
		}
		if err != nil {
			return res, fmt.Errorf("scenario %q step %d (%s): %w", s.Name, i, st.Op, err)
		}
		res.StepsRun++
	}
	return res, nil
}
