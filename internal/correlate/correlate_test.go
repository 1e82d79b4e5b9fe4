package correlate

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
)

var t0 = time.Date(2018, 7, 2, 9, 0, 0, 0, time.UTC)

func TestCorrelateTCAMOverflow(t *testing.T) {
	changes := faultlog.NewChangeLog()
	faults := faultlog.NewFaultLog()
	// The overflow fault is active when the filter change is applied —
	// the §V-B "TCAM overflow" use case.
	faults.Raise(t0, faultlog.FaultTCAMOverflow, 2, "tcam at 4096/4096 entries")
	changes.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(7), "add filter", 2)

	rep := Correlate([]object.Ref{object.Filter(7)}, changes, faults)
	if len(rep.Diagnoses) != 1 {
		t.Fatalf("diagnoses = %d", len(rep.Diagnoses))
	}
	d := rep.Diagnoses[0]
	if d.Unknown || len(d.Causes) != 1 {
		t.Fatalf("diagnosis = %+v", d)
	}
	if d.Causes[0].Signature != "tcam-overflow" {
		t.Errorf("signature = %q", d.Causes[0].Signature)
	}
	if d.Change == nil || d.Change.Object != object.Filter(7) {
		t.Error("diagnosis must carry the change entry")
	}
	if len(rep.RootCauses) != 1 || rep.RootCauses[0].Switch != 2 {
		t.Errorf("RootCauses = %+v", rep.RootCauses)
	}
}

func TestCorrelateFaultInactiveAtChangeTime(t *testing.T) {
	changes := faultlog.NewChangeLog()
	faults := faultlog.NewFaultLog()
	faults.Raise(t0, faultlog.FaultTCAMOverflow, 2, "")
	faults.Clear(t0.Add(time.Minute), faultlog.FaultTCAMOverflow, 2)
	// Change applied after the fault cleared: no correlation.
	changes.Append(t0.Add(time.Hour), faultlog.OpAdd, object.Filter(7), "", 2)

	rep := Correlate([]object.Ref{object.Filter(7)}, changes, faults)
	if !rep.Diagnoses[0].Unknown {
		t.Error("cleared fault must not explain a later change")
	}
}

func TestCorrelateSwitchScoping(t *testing.T) {
	changes := faultlog.NewChangeLog()
	faults := faultlog.NewFaultLog()
	faults.Raise(t0, faultlog.FaultSwitchUnreachable, 9, "")
	// The change was pushed to switch 2 only; the fault is on switch 9.
	changes.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(7), "", 2)

	rep := Correlate([]object.Ref{object.Filter(7)}, changes, faults)
	if !rep.Diagnoses[0].Unknown {
		t.Error("fault on an unrelated switch must not match")
	}

	// Without switch scoping on the change, any active fault matches.
	changes2 := faultlog.NewChangeLog()
	changes2.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(7), "")
	rep = Correlate([]object.Ref{object.Filter(7)}, changes2, faults)
	if rep.Diagnoses[0].Unknown {
		t.Error("unscoped change should match any active fault")
	}
}

func TestCorrelateSwitchObjectInHypothesis(t *testing.T) {
	changes := faultlog.NewChangeLog()
	faults := faultlog.NewFaultLog()
	faults.Raise(t0, faultlog.FaultSwitchUnreachable, 4, "heartbeat lost")

	rep := Correlate([]object.Ref{object.Switch(4)}, changes, faults)
	d := rep.Diagnoses[0]
	if d.Unknown || len(d.Causes) != 1 || d.Causes[0].Signature != "unresponsive-switch" {
		t.Errorf("switch hypothesis diagnosis = %+v", d)
	}
}

func TestCorrelateNoChangeLogEntry(t *testing.T) {
	rep := Correlate(
		[]object.Ref{object.Filter(1)},
		faultlog.NewChangeLog(), faultlog.NewFaultLog())
	if !rep.Diagnoses[0].Unknown {
		t.Error("object with no change history must be unknown")
	}
}

func TestRootCauseRanking(t *testing.T) {
	changes := faultlog.NewChangeLog()
	faults := faultlog.NewFaultLog()
	faults.Raise(t0, faultlog.FaultSwitchUnreachable, 2, "")
	faults.Raise(t0, faultlog.FaultTCAMOverflow, 3, "")
	// Three filters changed while switch 2 was down; one while switch 3
	// overflowed.
	for i := 1; i <= 3; i++ {
		changes.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(object.ID(i)), "", 2)
	}
	changes.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(9), "", 3)

	hyp := []object.Ref{object.Filter(1), object.Filter(2), object.Filter(3), object.Filter(9)}
	rep := Correlate(hyp, changes, faults)
	if len(rep.RootCauses) != 2 {
		t.Fatalf("root causes = %d", len(rep.RootCauses))
	}
	if rep.RootCauses[0].Switch != 2 || len(rep.RootCauses[0].Objects) != 3 {
		t.Errorf("top cause = %+v, want switch 2 with 3 objects", rep.RootCauses[0])
	}
}

// TestCorrelateFaultClasses pins each fault class's signature and
// description, an unraised code matching nothing, and an object that two
// faults of one class explain counted once in its ranked cause.
func TestCorrelateFaultClasses(t *testing.T) {
	type raise struct {
		code   faultlog.FaultCode
		detail string
	}
	for _, tc := range []struct {
		name   string
		raises []raise
		causes []Cause // Fault left zero: compared on Signature and Description
	}{
		{"tcam-overflow", []raise{{faultlog.FaultTCAMOverflow, "tcam at 4096/4096 entries"}},
			[]Cause{{Signature: "tcam-overflow", Description: "TCAM overflow on switch 2 (tcam at 4096/4096 entries)"}}},
		{"unresponsive-switch", []raise{{faultlog.FaultSwitchUnreachable, "heartbeat lost"}},
			[]Cause{{Signature: "unresponsive-switch", Description: "switch 2 unreachable during policy change (heartbeat lost)"}}},
		{"agent-crash", []raise{{faultlog.FaultAgentCrash, "policy agent restarted"}},
			[]Cause{{Signature: "agent-crash", Description: "switch 2 agent crashed mid-update (policy agent restarted)"}}},
		{"unraised-code", []raise{{faultlog.FaultCode(99), "parity mismatch"}}, nil},
		{"repeated-overflow", []raise{{faultlog.FaultTCAMOverflow, "first"}, {faultlog.FaultTCAMOverflow, "second"}},
			[]Cause{{Signature: "tcam-overflow", Description: "TCAM overflow on switch 2 (first)"},
				{Signature: "tcam-overflow", Description: "TCAM overflow on switch 2 (second)"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changes := faultlog.NewChangeLog()
			faults := faultlog.NewFaultLog()
			for i, r := range tc.raises {
				faults.Raise(t0.Add(time.Duration(i)*time.Second), r.code, 2, r.detail)
			}
			changes.Append(t0.Add(time.Minute), faultlog.OpAdd, object.Filter(7), "", 2)

			rep := Correlate([]object.Ref{object.Filter(7)}, changes, faults)
			d := rep.Diagnoses[0]
			if d.Unknown != (len(tc.causes) == 0) || len(d.Causes) != len(tc.causes) {
				t.Fatalf("diagnosis = %+v, want causes %+v", d, tc.causes)
			}
			for i, c := range d.Causes {
				if c.Signature != tc.causes[i].Signature || c.Description != tc.causes[i].Description || c.Fault.Switch != 2 {
					t.Errorf("cause %d = %+v, want %+v on switch 2", i, c, tc.causes[i])
				}
			}
			if len(tc.causes) == 0 {
				if len(rep.RootCauses) != 0 {
					t.Errorf("RootCauses = %+v, want none", rep.RootCauses)
				}
				return
			}
			want := []RankedCause{{Signature: tc.causes[0].Signature, Switch: 2,
				Description: tc.causes[0].Description, Objects: []object.Ref{object.Filter(7)}}}
			if !reflect.DeepEqual(rep.RootCauses, want) {
				t.Errorf("RootCauses = %+v, want %+v", rep.RootCauses, want)
			}
		})
	}
}
