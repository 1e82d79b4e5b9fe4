package faultlog

import (
	"strings"
	"testing"
	"time"

	"scout/internal/object"
)

var t0 = time.Date(2018, 7, 2, 9, 0, 0, 0, time.UTC)

func TestChangeLogAppendAndQuery(t *testing.T) {
	l := NewChangeLog()
	c1 := l.Append(t0, OpAdd, object.Filter(1), "add filter", 1, 2)
	c2 := l.Append(t0.Add(time.Minute), OpModify, object.Filter(1), "modify filter")
	l.Append(t0.Add(2*time.Minute), OpDelete, object.Contract(9), "drop contract")

	if c1.Seq != 1 || c2.Seq != 2 {
		t.Errorf("sequence numbers: %d, %d", c1.Seq, c2.Seq)
	}
	if len(l.entries) != 3 {
		t.Errorf("%d entries, want 3", len(l.entries))
	}
	last, ok := l.LastChange(object.Filter(1))
	if !ok || last.Op != OpModify {
		t.Errorf("LastChange = %+v, %v", last, ok)
	}
	if _, ok := l.LastChange(object.VRF(99)); ok {
		t.Error("LastChange of unknown object must be absent")
	}
	if len(c1.Switches) != 2 {
		t.Errorf("switches not recorded: %v", c1.Switches)
	}
}

func TestChangedSince(t *testing.T) {
	l := NewChangeLog()
	l.Append(t0, OpAdd, object.Filter(1), "")
	if !l.ChangedSince(object.Filter(1), t0) {
		t.Error("change at exactly t counts")
	}
	if l.ChangedSince(object.Filter(1), t0.Add(time.Second)) {
		t.Error("older changes must not count")
	}
	if l.ChangedSince(object.Filter(2), t0) {
		t.Error("unknown object never changed")
	}
}

func TestChangeOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpModify.String() != "modify" || OpDelete.String() != "delete" {
		t.Error("op names wrong")
	}
	if !strings.Contains(ChangeOp(9).String(), "9") {
		t.Error("unknown op should carry its value")
	}
}

func TestFaultLifecycle(t *testing.T) {
	l := NewFaultLog()
	l.Raise(t0, FaultSwitchUnreachable, 2, "heartbeat lost")
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	f := l.faults[0]
	if !f.ActiveAt(t0) || !f.ActiveAt(t0.Add(time.Hour)) {
		t.Error("uncleared fault stays active")
	}
	if f.ActiveAt(t0.Add(-time.Second)) {
		t.Error("fault not active before raise")
	}

	if !l.Clear(t0.Add(10*time.Minute), FaultSwitchUnreachable, 2) {
		t.Fatal("Clear should find the active fault")
	}
	if l.Clear(t0, FaultSwitchUnreachable, 2) {
		t.Error("second Clear must fail")
	}
	f = l.faults[0]
	if !f.ActiveAt(t0.Add(5 * time.Minute)) {
		t.Error("fault active inside its window")
	}
	if f.ActiveAt(t0.Add(10 * time.Minute)) {
		t.Error("fault inactive at clear instant")
	}
}

func TestActiveAtWindowing(t *testing.T) {
	l := NewFaultLog()
	l.Raise(t0, FaultTCAMOverflow, 3, "")
	l.Raise(t0.Add(5*time.Minute), FaultSwitchUnreachable, 1, "")
	l.Clear(t0.Add(10*time.Minute), FaultTCAMOverflow, 3)

	at := l.ActiveAt(t0.Add(7 * time.Minute))
	if len(at) != 2 {
		t.Fatalf("ActiveAt mid-window = %d faults", len(at))
	}
	// Sorted by switch.
	if at[0].Switch != 1 || at[1].Switch != 3 {
		t.Errorf("ordering: %v", at)
	}
	at = l.ActiveAt(t0.Add(20 * time.Minute))
	if len(at) != 1 || at[0].Code != FaultSwitchUnreachable {
		t.Errorf("ActiveAt after clear = %v", at)
	}
}

func TestOnSwitch(t *testing.T) {
	l := NewFaultLog()
	l.Raise(t0, FaultTCAMOverflow, 3, "")
	l.Raise(t0, FaultAgentCrash, 4, "")
	l.Raise(t0, FaultTCAMOverflow, 3, "")
	if got := l.OnSwitch(3); len(got) != 2 {
		t.Errorf("OnSwitch(3) = %d", len(got))
	}
	if got := l.OnSwitch(9); len(got) != 0 {
		t.Errorf("OnSwitch(9) = %d", len(got))
	}
}

func TestFaultCodeString(t *testing.T) {
	codes := map[FaultCode]string{
		FaultTCAMOverflow:      "tcam-overflow",
		FaultSwitchUnreachable: "switch-unreachable",
		FaultAgentCrash:        "agent-crash",
	}
	for code, want := range codes {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", code, code.String(), want)
		}
	}
	if !strings.Contains(FaultCode(42).String(), "42") {
		t.Error("unknown code should carry its value")
	}
}
