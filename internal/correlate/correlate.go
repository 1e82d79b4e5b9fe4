// Package correlate implements the paper's event correlation engine (§V):
// it joins the localization hypothesis (faulty policy objects) with the
// controller's change log and the devices' fault log to infer the most
// likely physical-level root causes. The engine is signature-driven:
// known fault classes (TCAM overflow, unresponsive switch, …) match
// pre-configured signatures; objects whose failures match nothing are
// tagged unknown.
package correlate

import (
	"fmt"
	"sort"
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
)

// Signature describes a known physical-fault class. Match decides whether
// a fault event explains a policy-object failure; Describe renders the
// inferred root cause for the report.
type Signature struct {
	Name     string
	Code     faultlog.FaultCode
	Match    func(f faultlog.Fault, change faultlog.Change) bool
	Describe func(f faultlog.Fault) string
}

// DefaultSignatures returns the signatures for the §V-B fault classes.
// Admins extend the engine with additional signatures over time.
func DefaultSignatures() []Signature {
	return []Signature{
		{
			Name: "tcam-overflow",
			Code: faultlog.FaultTCAMOverflow,
			Describe: func(f faultlog.Fault) string {
				return fmt.Sprintf("TCAM overflow on switch %d (%s)", f.Switch, f.Detail)
			},
		},
		{
			Name: "unresponsive-switch",
			Code: faultlog.FaultSwitchUnreachable,
			Describe: func(f faultlog.Fault) string {
				return fmt.Sprintf("switch %d unreachable during policy change (%s)", f.Switch, f.Detail)
			},
		},
		{
			Name: "agent-crash",
			Code: faultlog.FaultAgentCrash,
			Describe: func(f faultlog.Fault) string {
				return fmt.Sprintf("switch %d agent crashed mid-update (%s)", f.Switch, f.Detail)
			},
		},
		{
			Name: "control-channel-disruption",
			Code: faultlog.FaultControlChannel,
			Describe: func(f faultlog.Fault) string {
				return fmt.Sprintf("control channel to switch %d disrupted (%s)", f.Switch, f.Detail)
			},
		},
	}
}

// Engine correlates hypotheses with logs.
type Engine struct {
	sigs []Signature
}

// NewEngine creates an engine with the given signatures; nil selects
// DefaultSignatures.
func NewEngine(sigs []Signature) *Engine {
	if sigs == nil {
		sigs = DefaultSignatures()
	}
	return &Engine{sigs: append([]Signature(nil), sigs...)}
}

// Diagnosis is the per-object correlation outcome.
type Diagnosis struct {
	// Object is the faulty policy object from the hypothesis.
	Object object.Ref
	// Change is the most recent change-log entry for the object, if any.
	Change *faultlog.Change
	// Causes lists matched physical root causes.
	Causes []Cause
	// Unknown is set when no signature matched (e.g. silent TCAM
	// corruption): the object is real but its physical cause is not in
	// the logs.
	Unknown bool
}

// Cause is one matched physical-level root cause.
type Cause struct {
	Signature   string
	Fault       faultlog.Fault
	Description string
}

// Report aggregates correlation results for a hypothesis.
type Report struct {
	Diagnoses []Diagnosis
	// RootCauses ranks distinct (signature, switch) causes by how many
	// hypothesis objects they explain — the engine's "most likely root
	// causes" output.
	RootCauses []RankedCause
}

// RankedCause is a distinct physical cause with its impacted objects.
type RankedCause struct {
	Signature   string
	Switch      object.ID
	Description string
	Objects     []object.Ref
}

// Correlate executes the three-step §V-A procedure for every hypothesis
// object: find its change-log entries, window the fault log to faults
// active at change time, and match signatures.
func (e *Engine) Correlate(hypothesis []object.Ref, changes *faultlog.ChangeLog, faults *faultlog.FaultLog) *Report {
	rep := &Report{}
	type causeKey struct {
		sig string
		sw  object.ID
	}
	ranked := make(map[causeKey]*RankedCause)
	rankedObjs := make(map[causeKey]object.Set)

	for _, obj := range hypothesis {
		d := Diagnosis{Object: obj}
		var at time.Time
		var relevantSwitches map[object.ID]struct{}

		if obj.Kind == object.KindSwitch {
			// A physical switch in the hypothesis: correlate directly
			// against faults on that switch, active now or in the past.
			relevantSwitches = map[object.ID]struct{}{obj.ID: {}}
			for _, f := range faults.OnSwitch(obj.ID) {
				e.matchFault(&d, f, faultlog.Change{})
			}
		} else {
			change, ok := changes.LastChange(obj)
			if ok {
				d.Change = &change
				at = change.Time
				if len(change.Switches) > 0 {
					relevantSwitches = make(map[object.ID]struct{}, len(change.Switches))
					for _, sw := range change.Switches {
						relevantSwitches[sw] = struct{}{}
					}
				}
				// Step 2: faults active when the change was applied.
				for _, f := range faults.ActiveAt(at) {
					if relevantSwitches != nil {
						if _, ok := relevantSwitches[f.Switch]; !ok {
							continue
						}
					}
					e.matchFault(&d, f, change)
				}
			}
		}

		d.Unknown = len(d.Causes) == 0
		rep.Diagnoses = append(rep.Diagnoses, d)
		for _, c := range d.Causes {
			k := causeKey{sig: c.Signature, sw: c.Fault.Switch}
			rc, ok := ranked[k]
			if !ok {
				rc = &RankedCause{
					Signature:   c.Signature,
					Switch:      c.Fault.Switch,
					Description: c.Description,
				}
				ranked[k] = rc
				rankedObjs[k] = make(object.Set)
			}
			// An object may match several fault events of the same class
			// on the same switch (e.g. repeated overflow events); count
			// it once per distinct cause.
			if !rankedObjs[k].Has(obj) {
				rankedObjs[k].Add(obj)
				rc.Objects = append(rc.Objects, obj)
			}
		}
	}

	for _, rc := range ranked {
		object.SortRefs(rc.Objects)
		rep.RootCauses = append(rep.RootCauses, *rc)
	}
	sort.Slice(rep.RootCauses, func(i, j int) bool {
		a, b := rep.RootCauses[i], rep.RootCauses[j]
		if len(a.Objects) != len(b.Objects) {
			return len(a.Objects) > len(b.Objects)
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		return a.Signature < b.Signature
	})
	return rep
}

func (e *Engine) matchFault(d *Diagnosis, f faultlog.Fault, change faultlog.Change) {
	for _, sig := range e.sigs {
		if sig.Code != f.Code {
			continue
		}
		if sig.Match != nil && !sig.Match(f, change) {
			continue
		}
		desc := f.Code.String()
		if sig.Describe != nil {
			desc = sig.Describe(f)
		}
		d.Causes = append(d.Causes, Cause{
			Signature:   sig.Name,
			Fault:       f,
			Description: desc,
		})
	}
}
