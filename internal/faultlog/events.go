package faultlog

// This file is the dataplane event stream of the paper's event-driven
// collection mode (§III-C: rules are collected "periodically and/or in an
// event-driven fashion"). Where ChangeLog and FaultLog are forensic
// records the correlation engine reads after the fact, EventLog is the
// live ingestion signal: the monitoring plane's switch-scoped
// notifications (a TCAM write, a control-channel transition, an EPG
// placement change) that tell a collector *which* switches to re-read
// instead of sweeping the whole fabric.

import (
	"fmt"
	"sync"
	"time"

	"scout/internal/object"
)

// EventKind classifies a dataplane event.
type EventKind int

// Event kinds.
const (
	// EventTCAMChange reports that a switch's TCAM contents changed (a
	// policy push, an eviction, a corruption, a restart rendering queued
	// rules). The event names the switch, not the rules: consumers
	// re-read the switch's current state, so coalescing a burst of
	// changes to one refresh is always safe.
	EventTCAMChange EventKind = iota + 1
	// EventLink reports a control-channel/link state transition on the
	// switch (disconnect, reconnect).
	EventLink
	// EventEPG reports an EPG-scoped policy placement change touching
	// the switch (a contract bound or unbound on a pair the switch
	// hosts).
	EventEPG
)

// String returns the canonical event-kind name.
func (k EventKind) String() string {
	switch k {
	case EventTCAMChange:
		return "tcam-change"
	case EventLink:
		return "link"
	case EventEPG:
		return "epg"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one switch-scoped dataplane event. Seq is the stream-wide
// sequence number: strictly increasing in emission order, so consumers
// can detect out-of-order delivery and resume from a cursor position.
type Event struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   EventKind `json:"kind"`
	Switch object.ID `json:"switch"`
	Detail string    `json:"detail,omitempty"`
}

// EventLog is an append-only stream of dataplane events, safe for
// concurrent use. Consumers pull from it through Cursors; the log itself
// never blocks a producer (backpressure is the consumer's coalescing
// queue's job, not the stream's).
type EventLog struct {
	mu     sync.RWMutex
	events []Event
}

// NewEventLog returns an empty event stream.
func NewEventLog() *EventLog { return &EventLog{} }

// Append records an event and returns it, Seq its position from 1.
func (l *EventLog) Append(at time.Time, kind EventKind, sw object.ID, detail string) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := Event{Seq: len(l.events) + 1, Time: at, Kind: kind, Switch: sw, Detail: detail}
	l.events = append(l.events, ev)
	return ev
}

// LastSeq returns the sequence number of the newest event (0 when empty).
func (l *EventLog) LastSeq() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.events)
}

// Since returns the events with sequence numbers strictly greater than
// seq, in emission order. An event's Seq is its position (1, 2, 3, …),
// so the slice is located by offset instead of scanning.
func (l *EventLog) Since(seq int) []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if seq < 0 {
		seq = 0
	}
	if seq >= len(l.events) {
		return nil
	}
	return append([]Event(nil), l.events[seq:]...)
}

// Cursor is a stateful consumer position over an EventLog: each Drain
// returns the events appended since the previous Drain. Cursors are
// independent — several consumers can tail one stream — but a single
// Cursor is not safe for concurrent use.
type Cursor struct {
	log *EventLog
	seq int
}

// TailCursor returns a consumer position at the current end of the
// stream: the first Drain returns only events appended after this call.
func (l *EventLog) TailCursor() *Cursor { return &Cursor{log: l, seq: l.LastSeq()} }

// Drain returns the events appended since the previous Drain (or since
// the cursor's creation point) and advances past them.
func (c *Cursor) Drain() []Event {
	evs := c.log.Since(c.seq)
	if n := len(evs); n > 0 {
		c.seq = evs[n-1].Seq
	}
	return evs
}
