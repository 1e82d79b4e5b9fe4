package faultlog

import (
	"testing"
	"time"
)

func TestEventLogAppendAndSince(t *testing.T) {
	l := NewEventLog()
	if l.LastSeq() != 0 || l.Since(0) != nil {
		t.Fatalf("fresh log not empty: LastSeq %d, events %v", l.LastSeq(), l.Since(0))
	}
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, kind := range []EventKind{EventTCAMChange, EventLink, EventEPG} {
		ev := l.Append(at, kind, 7, "detail")
		if ev.Seq != i+1 {
			t.Fatalf("append %d: Seq = %d, want dense numbering from 1", i, ev.Seq)
		}
	}
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq %d, want 3", l.LastSeq())
	}
	// Since is exclusive of seq and offset-indexed off dense numbering.
	if evs := l.Since(0); len(evs) != 3 || evs[0].Seq != 1 {
		t.Fatalf("Since(0) = %v, want all 3", evs)
	}
	if evs := l.Since(2); len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("Since(2) = %v, want just seq 3", evs)
	}
	if evs := l.Since(3); evs != nil {
		t.Fatalf("Since(LastSeq) = %v, want nil", evs)
	}
	if evs := l.Since(-5); len(evs) != 3 {
		t.Fatalf("Since(negative) = %v, want all 3", evs)
	}
	// Since returns an isolated snapshot.
	snap := l.Since(0)
	snap[0].Seq = 99
	if l.Since(0)[0].Seq != 1 {
		t.Fatal("Since snapshot aliases log storage")
	}
}

func TestEventCursors(t *testing.T) {
	l := NewEventLog()
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	head := l.TailCursor() // the tail of an empty log is its head
	l.Append(at, EventTCAMChange, 1, "")
	l.Append(at, EventTCAMChange, 2, "")
	tail := l.TailCursor()
	if evs := head.Drain(); len(evs) != 2 || evs[1].Seq != 2 {
		t.Fatalf("head Drain = %v, want seqs 1..2 (replays retained events)", evs)
	}
	if evs := tail.Drain(); len(evs) != 0 {
		t.Fatalf("tail Drain = %v, want empty", evs)
	}

	l.Append(at, EventLink, 3, "")
	// Independent cursors both see the new event exactly once.
	for name, c := range map[string]*Cursor{"head": head, "tail": tail} {
		if evs := c.Drain(); len(evs) != 1 || evs[0].Seq != 3 {
			t.Fatalf("%s Drain = %v, want just seq 3", name, evs)
		}
		if evs := c.Drain(); len(evs) != 0 {
			t.Fatalf("%s re-Drain = %v, want empty", name, evs)
		}
	}
}

func TestEventKindString(t *testing.T) {
	tests := []struct {
		kind EventKind
		want string
	}{
		{EventTCAMChange, "tcam-change"},
		{EventLink, "link"},
		{EventEPG, "epg"},
		{EventKind(42), "event(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}
