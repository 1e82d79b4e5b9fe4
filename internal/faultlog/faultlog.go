// Package faultlog provides the two system-level log streams the SCOUT
// event-correlation engine consumes (§V): the controller's policy change
// log (what was changed, when, to which objects) and the network devices'
// fault log (physical-level fault events such as TCAM overflow or an
// unresponsive switch).
package faultlog

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scout/internal/object"
)

// ChangeOp enumerates policy change operations recorded by the controller.
type ChangeOp int

// Change operations.
const (
	OpAdd ChangeOp = iota + 1
	OpModify
	OpDelete
)

// String returns the operation name.
func (op ChangeOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpModify:
		return "modify"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Change is one controller change-log entry.
type Change struct {
	Seq    int        `json:"seq"`
	Time   time.Time  `json:"time"`
	Op     ChangeOp   `json:"op"`
	Object object.Ref `json:"object"`
	Detail string     `json:"detail,omitempty"`
	// Switches lists the switches the change was pushed to (empty when the
	// change did not reach any switch).
	Switches []object.ID `json:"switches,omitempty"`
}

// ChangeLog is an append-only log of policy changes, safe for concurrent
// use.
type ChangeLog struct {
	mu      sync.RWMutex
	entries []Change
}

// NewChangeLog returns an empty change log.
func NewChangeLog() *ChangeLog { return &ChangeLog{} }

// Append records a change and returns it, Seq its position from 1.
func (l *ChangeLog) Append(at time.Time, op ChangeOp, obj object.Ref, detail string, switches ...object.ID) Change {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := Change{
		Seq:      len(l.entries) + 1,
		Time:     at,
		Op:       op,
		Object:   obj,
		Detail:   detail,
		Switches: append([]object.ID(nil), switches...),
	}
	l.entries = append(l.entries, c)
	return c
}

// LastChange returns the most recent entry for obj, if any.
func (l *ChangeLog) LastChange(obj object.Ref) (Change, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Object == obj {
			return l.entries[i], true
		}
	}
	return Change{}, false
}

// ChangedSince reports whether obj has a change entry at or after t.
func (l *ChangeLog) ChangedSince(obj object.Ref, t time.Time) bool {
	c, ok := l.LastChange(obj)
	return ok && !c.Time.Before(t)
}

// FaultCode identifies a class of physical-level fault, mirroring the
// device fault codes the paper's correlation engine matches signatures
// against.
type FaultCode int

// Physical fault codes: the ones the fabric raises. A silent fault, such
// as TCAM corruption, raises nothing.
const (
	FaultTCAMOverflow FaultCode = iota + 1
	FaultSwitchUnreachable
	FaultAgentCrash
)

// String returns the canonical fault-code name.
func (c FaultCode) String() string {
	switch c {
	case FaultTCAMOverflow:
		return "tcam-overflow"
	case FaultSwitchUnreachable:
		return "switch-unreachable"
	case FaultAgentCrash:
		return "agent-crash"
	default:
		return fmt.Sprintf("fault(%d)", int(c))
	}
}

// Fault is one device fault-log event. A fault is raised at Raised and, if
// the condition ended, cleared at Cleared (zero time means still active).
type Fault struct {
	Seq     int       `json:"seq"`
	Code    FaultCode `json:"code"`
	Switch  object.ID `json:"switch"`
	Raised  time.Time `json:"raised"`
	Cleared time.Time `json:"cleared,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// ActiveAt reports whether the fault condition held at time t.
func (f Fault) ActiveAt(t time.Time) bool {
	if t.Before(f.Raised) {
		return false
	}
	return f.Cleared.IsZero() || t.Before(f.Cleared)
}

// FaultLog is an append-only device fault log, safe for concurrent use.
type FaultLog struct {
	mu     sync.RWMutex
	faults []Fault
}

// NewFaultLog returns an empty fault log.
func NewFaultLog() *FaultLog { return &FaultLog{} }

// Raise records a new active fault and returns its Seq, its position from 1.
func (l *FaultLog) Raise(at time.Time, code FaultCode, sw object.ID, detail string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = append(l.faults, Fault{
		Seq:    len(l.faults) + 1,
		Code:   code,
		Switch: sw,
		Raised: at,
		Detail: detail,
	})
	return len(l.faults)
}

// Clear marks the most recent active fault with the given code on the
// given switch as cleared at time at. It reports whether a fault was
// cleared.
func (l *FaultLog) Clear(at time.Time, code FaultCode, sw object.ID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.faults) - 1; i >= 0; i-- {
		f := &l.faults[i]
		if f.Code == code && f.Switch == sw && f.Cleared.IsZero() {
			f.Cleared = at
			return true
		}
	}
	return false
}

// Len returns the number of recorded faults.
func (l *FaultLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.faults)
}

// ActiveAt returns the faults whose condition held at time t, ordered by
// switch then sequence — the "relevant fault logs" window the correlation
// engine inspects.
func (l *FaultLog) ActiveAt(t time.Time) []Fault {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Fault
	for _, f := range l.faults {
		if f.ActiveAt(t) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Switch != out[j].Switch {
			return out[i].Switch < out[j].Switch
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// OnSwitch returns all faults raised on switch sw in raise order.
func (l *FaultLog) OnSwitch(sw object.ID) []Fault {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Fault
	for _, f := range l.faults {
		if f.Switch == sw {
			out = append(out, f)
		}
	}
	return out
}
