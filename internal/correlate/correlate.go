// Package correlate implements the paper's event correlation (§V): it
// joins the localization hypothesis (faulty policy objects) with the
// controller's change log and the devices' fault log to infer the most
// likely physical-level root causes. A fault matches when its code is one
// of the fabric's three fault classes (TCAM overflow, an unresponsive
// switch, an agent crash); objects whose failures match nothing are
// tagged unknown.
package correlate

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"scout/internal/faultlog"
	"scout/internal/object"
)

// Diagnosis is the per-object correlation outcome.
type Diagnosis struct {
	// Object is the faulty policy object from the hypothesis.
	Object object.Ref
	// Change is the most recent change-log entry for the object, if any.
	Change *faultlog.Change
	// Causes lists matched physical root causes.
	Causes []Cause
	// Unknown is set when no fault class matched (e.g. silent TCAM
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
	// hypothesis objects they explain — the "most likely root causes"
	// output.
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
// active at change time, and match each fault's class.
func Correlate(hypothesis []object.Ref, changes *faultlog.ChangeLog, faults *faultlog.FaultLog) *Report {
	rep := &Report{}
	type causeKey struct {
		sig string
		sw  object.ID
	}
	ranked := make(map[causeKey]*RankedCause)

	for _, obj := range hypothesis {
		d := Diagnosis{Object: obj}
		if obj.Kind == object.KindSwitch {
			// A physical switch in the hypothesis: correlate directly
			// against faults on that switch, active now or in the past.
			for _, f := range faults.OnSwitch(obj.ID) {
				d.match(f)
			}
		} else if change, ok := changes.LastChange(obj); ok {
			d.Change = &change
			// Step 2: faults active when the change was applied, on the
			// switches it was pushed to (any switch when it names none).
			for _, f := range faults.ActiveAt(change.Time) {
				if len(change.Switches) == 0 || slices.Contains(change.Switches, f.Switch) {
					d.match(f)
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
			}
			// An object may match several fault events of the same class
			// on the same switch (e.g. repeated overflow events); its
			// causes come one after another, so it is counted once.
			if n := len(rc.Objects); n == 0 || rc.Objects[n-1] != obj {
				rc.Objects = append(rc.Objects, obj)
			}
		}
	}

	for _, rc := range ranked {
		object.SortRefs(rc.Objects)
		rep.RootCauses = append(rep.RootCauses, *rc)
	}
	slices.SortFunc(rep.RootCauses, func(a, b RankedCause) int {
		return cmp.Or(cmp.Compare(len(b.Objects), len(a.Objects)),
			cmp.Compare(a.Switch, b.Switch), strings.Compare(a.Signature, b.Signature))
	})
	return rep
}

// The signatures of the fabric's three fault classes, one per fault code.
const (
	TCAMOverflow       = "tcam-overflow"
	UnresponsiveSwitch = "unresponsive-switch"
	AgentCrash         = "agent-crash"
)

// match appends f's cause when its code is one of the fabric's fault
// classes; any other code explains nothing.
func (d *Diagnosis) match(f faultlog.Fault) {
	var sig, format string
	switch f.Code {
	case faultlog.FaultTCAMOverflow:
		sig, format = TCAMOverflow, "TCAM overflow on switch %d (%s)"
	case faultlog.FaultSwitchUnreachable:
		sig, format = UnresponsiveSwitch, "switch %d unreachable during policy change (%s)"
	case faultlog.FaultAgentCrash:
		sig, format = AgentCrash, "switch %d agent crashed mid-update (%s)"
	default:
		return
	}
	d.Causes = append(d.Causes, Cause{Signature: sig, Fault: f, Description: fmt.Sprintf(format, f.Switch, f.Detail)})
}

// Engine is the correlation engine bench/ still builds.
//
// Deprecated: call Correlate. Engine stays until bench/ stops calling
// NewEngine (ROADMAP item 1, shims).
type Engine struct{}

// Signature is NewEngine's argument type; it carries nothing.
//
// Deprecated: it stays until bench/ stops calling NewEngine (ROADMAP item
// 1, shims).
type Signature struct{}

// NewEngine returns an Engine and ignores its argument.
//
// Deprecated: call Correlate. NewEngine stays until bench/ stops calling
// it (ROADMAP item 1, shims).
func NewEngine(_ []Signature) *Engine { return &Engine{} }

// Correlate forwards to the package function Correlate.
//
// Deprecated: call Correlate. It stays until bench/ stops calling
// NewEngine (ROADMAP item 1, shims).
func (*Engine) Correlate(hypothesis []object.Ref, changes *faultlog.ChangeLog, faults *faultlog.FaultLog) *Report {
	return Correlate(hypothesis, changes, faults)
}
