package scout_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scout"
	"scout/internal/collect"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// TestFabricEmitsEvents pins the simulator's monitoring-plane role:
// every dataplane mutation — policy pushes, link transitions, and the
// silent faults a real event stream would miss — appends a switch-scoped
// event to the fabric's stream.
func TestFabricEmitsEvents(t *testing.T) {
	f := cleanFabric(t, scout.TestbedWorkloadSpec(), scout.FabricOptions{Seed: 3})
	if f.EventLog().LastSeq() == 0 {
		t.Fatal("deploy emitted no events")
	}
	sw := switchesOf(f)[0]
	cursor := f.EventLog().TailCursor()

	expect := func(op string, kind faultlog.EventKind, wantSwitch scout.ObjectID) {
		t.Helper()
		evs := cursor.Drain()
		if len(evs) == 0 {
			t.Fatalf("%s emitted no events", op)
		}
		if slices.ContainsFunc(evs, func(ev faultlog.Event) bool { return ev.Seq <= 0 }) {
			t.Fatalf("%s: an event without sequence number in %+v", op, evs)
		}
		if !slices.ContainsFunc(evs, func(ev faultlog.Event) bool { return ev.Kind == kind && ev.Switch == wantSwitch }) {
			t.Fatalf("%s: no %v event for switch %d in %+v", op, kind, wantSwitch, evs)
		}
	}

	if err := f.Disconnect(sw); err != nil {
		t.Fatal(err)
	}
	expect("Disconnect", faultlog.EventLink, sw)
	if err := f.Reconnect(sw); err != nil {
		t.Fatal(err)
	}
	expect("Reconnect", faultlog.EventLink, sw)
	if _, err := f.EvictTCAM(sw, 1); err != nil {
		t.Fatal(err)
	}
	expect("EvictTCAM", scout.EventTCAMChange, sw)
	if _, err := f.CorruptTCAM(sw, 1, tcam.CorruptDstEPG); err != nil {
		t.Fatal(err)
	}
	expect("CorruptTCAM", scout.EventTCAMChange, sw)

	if _, err := f.InjectObjectFault(scout.FilterRef(deployedIDs(f, object.KindFilter)[0]), 1.0); err != nil {
		t.Fatal(err)
	}
	evs := cursor.Drain()
	if len(evs) == 0 {
		t.Fatal("InjectObjectFault emitted no events")
	}
	for _, ev := range evs {
		if ev.Kind != scout.EventTCAMChange {
			t.Fatalf("InjectObjectFault emitted %v, want tcam-change", ev.Kind)
		}
	}
}

// TestApplyEventsMatchesAnalyzeEpoch: a session fed coalesced event
// batches over random mutations, cut three switches at a time so cuts leave
// work pending, equals a cold analysis of the same state once the queue is
// drained (equalsCold's ApplyEvents entry), and the queue lost and
// duplicated no dirty mark and never cut past its batch size.
func TestApplyEventsMatchesAnalyzeEpoch(t *testing.T) {
	t.Parallel()
	r := equalsCold(t, coldCase{entry: viaEvents, workers: 2, steps: randomChurn(23, 12)})
	qs := r.queue.Stats()
	// Every distinct mark became a batch member, so none is left pending.
	if qs.Batches == 0 || qs.BatchedSwitches != qs.Pushed-qs.Coalesced || qs.MaxBatch > 3 {
		t.Errorf("queue stats %+v: want batched = pushed - coalesced, batches of at most 3", qs)
	}
}

// TestSessionRecoversFromFailedRun: a run whose check fails names the
// switch and returns no report, and once the switch is repaired the next
// run re-checks it — the failed run cached nothing — and equals a cold
// analysis.
func TestSessionRecoversFromFailedRun(t *testing.T) {
	f := faultyFabric(t, 11)
	sess := newSession(t, f)
	mustReport(t, sess.Analyze)
	sw := switchesOf(f)[1]
	removeOneRule(t, f, sw)
	s, err := f.Switch(sw)
	if err != nil {
		t.Fatal(err)
	}
	// An unencodable rule makes the re-check itself fail.
	if err := s.TCAM().Install(badRule); err != nil {
		t.Fatal(err)
	}
	if rep, err := sess.Analyze(); err == nil || rep != nil || !strings.Contains(err.Error(), fmt.Sprintf("switch %d:", sw)) {
		t.Fatalf("a run over an unencodable rule returned %v, %v; want an error naming switch %d", rep, err, sw)
	}
	if !s.TCAM().Remove(badRule.Key()) {
		t.Fatal("the unencodable rule is not installed")
	}
	before := sess.Stats()
	rep := mustReport(t, sess.Analyze)
	if after := sess.Stats(); after.Checked-before.Checked != 1 || after.Runs-before.Runs != 1 {
		t.Errorf("the run after the failure checked %d switches in %d runs, want switch %d alone in 1",
			after.Checked-before.Checked, after.Runs-before.Runs, sw)
	}
	if !bytes.Equal(marshalReport(t, rep), marshalReport(t, oneShot(t, f))) {
		t.Error("the run after the failure differs from a cold analysis")
	}
}

// TestSnapshotSwitchesCountsWhatItRead: a partial epoch naming a switch
// twice re-reads it and hands every other switch the previous epoch's
// slice, and a switch the fabric lacks fails it.
func TestSnapshotSwitchesCountsWhatItRead(t *testing.T) {
	f := faultyFabric(t, 11)
	c := scout.NewCollector(f, 4)
	e1 := c.Snapshot()
	sw := switchesOf(f)[1]
	removeOneRule(t, f, sw)

	e2, err := c.SnapshotSwitches([]scout.ObjectID{sw, sw})
	if err != nil {
		t.Fatal(err)
	}
	for other, rules := range e1.TCAM {
		if other != sw && !rule.SameSlice(rules, e2.TCAM[other]) {
			t.Errorf("switch %d was re-read; only switch %d was named", other, sw)
		}
	}
	if len(e2.TCAM[sw]) != len(e1.TCAM[sw])-1 {
		t.Errorf("re-read switch holds %d rules, want %d", len(e2.TCAM[sw]), len(e1.TCAM[sw])-1)
	}
	if dirty := collect.DirtySwitches(e1, e2); len(dirty) != 1 || dirty[0] != sw {
		t.Errorf("dirty = %v, want [%d]", dirty, sw)
	}
	if _, err := c.SnapshotSwitches([]scout.ObjectID{1 << 20}); err == nil {
		t.Error("a switch the fabric does not have must fail the partial epoch")
	}
}
