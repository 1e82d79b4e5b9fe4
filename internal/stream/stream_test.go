package stream

import (
	"testing"
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
)

// ev builds a test event; t is seconds on a fixed logical clock.
func ev(seq int, sw object.ID, sec int) faultlog.Event {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return faultlog.Event{
		Seq:    seq,
		Time:   base.Add(time.Duration(sec) * time.Second),
		Kind:   faultlog.EventTCAMChange,
		Switch: sw,
	}
}

func at(sec int) time.Time {
	return time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

// TestQueueCoalescesDuplicates pins the core property: K events for one
// switch occupy one pending slot, the newest sequence number wins, the
// cut batch carries exactly one entry for the switch, and cutting the
// drained queue returns an empty batch and counts none.
func TestQueueCoalescesDuplicates(t *testing.T) {
	q := New(Options{Cap: 8})
	for seq := 1; seq <= 5; seq++ {
		if q.Push(ev(seq, 3, seq)) {
			t.Fatalf("push %d: batch due below BatchSize", seq)
		}
	}
	st := q.Stats()
	if st.Pushed != 5 || st.Coalesced != 4 || st.Stale != 0 {
		t.Fatalf("stats = %+v, want Pushed 5, Coalesced 4, Stale 0", st)
	}
	b := q.Cut(at(10))
	if len(b.Switches) != 1 || b.Switches[0] != 3 {
		t.Fatalf("batch switches = %v, want [3]", b.Switches)
	}
	if b.Events[0].Seq != 5 || b.MaxSeq != 5 {
		t.Fatalf("coalesced entry seq = %d (MaxSeq %d), want newest 5", b.Events[0].Seq, b.MaxSeq)
	}
	if b := q.Cut(at(11)); len(b.Switches) != 0 || q.Stats().Batches != 1 {
		t.Fatalf("cut of the drained queue = %+v, %d batches counted; want empty, 1", b, q.Stats().Batches)
	}
}

// TestQueueOutOfOrderSequences pins the stale-event contract: an event
// whose sequence number is not beyond the newest already seen is counted
// stale but still marks its switch, and a stale duplicate never rolls a
// pending entry back to an older sequence number.
func TestQueueOutOfOrderSequences(t *testing.T) {
	q := New(Options{Cap: 8})
	q.Push(ev(5, 1, 1))
	q.Push(ev(3, 1, 2)) // stale duplicate: must not replace seq 5
	q.Push(ev(2, 2, 3)) // stale but for a fresh switch: must still mark it
	st := q.Stats()
	if st.Stale != 2 {
		t.Fatalf("Stale = %d, want 2", st.Stale)
	}
	b := q.Cut(at(4))
	if len(b.Switches) != 2 || b.Switches[0] != 1 || b.Switches[1] != 2 {
		t.Fatalf("batch switches = %v, want [1 2] (a stale event still marks its switch)", b.Switches)
	}
	if b.Events[0].Seq != 5 {
		t.Fatalf("switch 1 entry seq = %d, want 5 (stale dup must not roll back)", b.Events[0].Seq)
	}
	if b.MaxSeq != 5 {
		t.Fatalf("MaxSeq = %d, want 5", b.MaxSeq)
	}
}

// TestQueueOverflowCoalesces pins the backpressure contract: a push past
// capacity admits the switch (dropping a dirty mark would stale
// reports), counts an overflow, and signals an immediate cut; the cut
// drains the longest-waiting switches first.
func TestQueueOverflowCoalesces(t *testing.T) {
	q := New(Options{Cap: 2})
	if q.Push(ev(1, 10, 1)) {
		t.Fatal("due below capacity")
	}
	if !q.Push(ev(2, 20, 2)) {
		t.Fatal("push at BatchSize (=Cap) must signal a cut")
	}
	if !q.Push(ev(3, 30, 3)) {
		t.Fatal("overflow push must signal a cut")
	}
	st := q.Stats()
	if st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
	b := q.Cut(at(4))
	if len(b.Switches) != 2 || b.Switches[0] != 10 || b.Switches[1] != 20 {
		t.Fatalf("batch = %v, want the two longest-waiting switches [10 20]", b.Switches)
	}
	b = q.Cut(at(5))
	if len(b.Switches) != 1 || b.Switches[0] != 30 {
		t.Fatalf("second batch = %v, want [30] (overflow must admit, never drop)", b.Switches)
	}
	st = q.Stats()
	if st.Batches != 2 || st.BatchedSwitches != 3 || st.MaxBatch != 2 {
		t.Fatalf("stats = %+v, want Batches 2, BatchedSwitches 3, MaxBatch 2", st)
	}
}

// TestQueueBatchSize pins that BatchSize below Cap cuts early and that
// batch switches come out ascending regardless of arrival order.
func TestQueueBatchSize(t *testing.T) {
	q := New(Options{Cap: 16, BatchSize: 3})
	if q.Push(ev(1, 9, 1)) || q.Push(ev(2, 4, 2)) {
		t.Fatal("due below BatchSize")
	}
	if !q.Push(ev(3, 7, 3)) {
		t.Fatal("push reaching BatchSize must signal a cut")
	}
	b := q.Cut(at(4))
	if len(b.Switches) != 3 || b.Switches[0] != 4 || b.Switches[1] != 7 || b.Switches[2] != 9 {
		t.Fatalf("batch = %v, want ascending [4 7 9]", b.Switches)
	}
	for i, sw := range b.Switches {
		if b.Events[i].Switch != sw {
			t.Fatalf("Events misaligned at %d: event switch %d vs %d", i, b.Events[i].Switch, sw)
		}
	}
}

// TestQueueDefaultOptions pins the Options defaulting rules.
func TestQueueDefaultOptions(t *testing.T) {
	q := New(Options{})
	if q.cap != DefaultCap || q.batchSize != DefaultCap {
		t.Fatalf("zero options: cap %d batchSize %d, want both %d", q.cap, q.batchSize, DefaultCap)
	}
	q = New(Options{Cap: 4, BatchSize: 100})
	if q.batchSize != 4 {
		t.Fatalf("BatchSize above Cap must clamp to Cap: got %d", q.batchSize)
	}
}
