package scout_test

import (
	"bytes"
	"slices"
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
// drained (equalsCold's ApplyEvents entry). Its collection counters are
// what the batches named: every refresh after the baseline re-read exactly
// its batch and aliased every other switch, and the queue lost and
// duplicated no dirty mark and never cut past its batch size.
func TestApplyEventsMatchesAnalyzeEpoch(t *testing.T) {
	t.Parallel()
	r := equalsCold(t, coldCase{entry: viaEvents, workers: 2, steps: randomChurn(23, 12)})
	st, qs := r.sess.Stats(), r.queue.Stats()
	if st.EventBatches == 0 || st.EventSwitchesAliased == 0 {
		t.Fatalf("streaming path not engaged: %+v", st)
	}
	if st.EventBatches != r.partials || st.EventSwitchesRead != r.named {
		t.Errorf("%d partial refreshes read %d switches, want %d reading the %d their batches named",
			st.EventBatches, st.EventSwitchesRead, r.partials, r.named)
	}
	if qs.BatchedSwitches != qs.Pushed-qs.Coalesced || qs.BatchedSwitches != r.named || qs.MaxBatch > 3 {
		t.Errorf("queue stats %+v: want batched = pushed - coalesced = %d switches named, batches of at most 3", qs, r.named)
	}
	if got, want := st.EventSwitchesRead+st.EventSwitchesAliased, st.EventBatches*len(r.f.Deployment().BySwitch); got != want {
		t.Errorf("read %d + aliased %d switches, want batches x switches = %d", st.EventSwitchesRead, st.EventSwitchesAliased, want)
	}
}

// TestApplyEventsCountsWhatItRead pins the collection counters to what a
// partial refresh did rather than to the batch's length: a batch naming a
// switch twice re-reads it once and aliases every other switch, the report
// still matches a cold analysis, and a refresh whose analysis fails counts
// nothing.
func TestApplyEventsCountsWhatItRead(t *testing.T) {
	f := faultyFabric(t, 11)
	sess := newSession(t, f)
	if _, err := sess.ApplyEvents(scout.EventBatch{}); err != nil { // full baseline
		t.Fatal(err)
	}
	n := len(f.Deployment().BySwitch)
	sw := switchesOf(f)[1]
	removeOneRule(t, f, sw)

	rep, err := sess.ApplyEvents(scout.EventBatch{Switches: []scout.ObjectID{sw, sw}})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.EventBatches != 1 || st.EventSwitchesRead != 1 || st.EventSwitchesAliased != n-1 {
		t.Errorf("duplicated switch: batches %d, read %d, aliased %d; want 1, 1, %d",
			st.EventBatches, st.EventSwitchesRead, st.EventSwitchesAliased, n-1)
	}
	if got := st.Checked - n; got != 1 {
		t.Errorf("duplicated switch: re-checked %d switches, want 1", got)
	}
	cold := oneShot(t, f)
	if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
		t.Error("duplicated switch: report differs from cold analyzer")
	}

	// An unencodable rule makes the re-check itself fail.
	s, err := f.Switch(sw)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TCAM().Install(badRule); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyEvents(scout.EventBatch{Switches: []scout.ObjectID{sw}}); err == nil {
		t.Fatal("expected the refresh to fail on an unencodable rule")
	}
	if after := sess.Stats(); after.EventBatches != st.EventBatches ||
		after.EventSwitchesRead != st.EventSwitchesRead || after.EventSwitchesAliased != st.EventSwitchesAliased {
		t.Errorf("failed refresh moved the event counters: %+v -> %+v", st, after)
	}
}

// TestSnapshotSwitchesCountsWhatItRead is the collector's half of the same
// contract — both run collect.Partial: a partial epoch naming a switch
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
