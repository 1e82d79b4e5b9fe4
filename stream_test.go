package scout_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"scout"
	"scout/internal/collect"
	"scout/internal/faultlog"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// TestFabricEmitsEvents pins the simulator's monitoring-plane role:
// every dataplane mutation — policy pushes, link transitions, and the
// silent faults a real event stream would miss — appends a switch-scoped
// event to the fabric's stream.
func TestFabricEmitsEvents(t *testing.T) {
	pol, topo, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	if f.EventLog().LastSeq() == 0 {
		t.Fatal("deploy emitted no events")
	}
	sw := topo.Switches()[0]
	cursor := f.EventLog().TailCursor()

	expect := func(op string, kind faultlog.EventKind, wantSwitch scout.ObjectID) {
		t.Helper()
		evs := cursor.Drain()
		if len(evs) == 0 {
			t.Fatalf("%s emitted no events", op)
		}
		found := false
		for _, ev := range evs {
			if ev.Kind == kind && ev.Switch == wantSwitch {
				found = true
			}
			if ev.Seq <= 0 {
				t.Fatalf("%s: event without sequence number: %+v", op, ev)
			}
		}
		if !found {
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

	var filterID scout.ObjectID
	for id := range pol.Filters {
		if filterID == 0 || id < filterID {
			filterID = id
		}
	}
	if _, err := f.InjectObjectFault(scout.FilterRef(filterID), 1.0); err != nil {
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

// TestApplyEventsMatchesAnalyzeEpoch is the streaming equivalence
// property: a session fed coalesced event batches (including
// size-limited mid-stream cuts that leave work pending) must, once the
// queue is drained, produce a report byte-identical to a full
// AnalyzeEpoch of the same final state — at every worker count, over a
// randomized fabric-mutation sequence. The final reports must also
// agree across worker counts.
func TestApplyEventsMatchesAnalyzeEpoch(t *testing.T) {
	var finals [][]byte
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		f := faultyFabric(t, 11)
		opts := scout.AnalyzerOptions{Workers: workers}
		streamSess, err := scout.NewSession(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		refSess, err := scout.NewSession(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		collector := scout.NewCollector(f, 4)
		// Tail from here: the baseline full collections below cover the
		// seed faults the cursor skips.
		cursor := f.EventLog().TailCursor()
		// A batch size of 3 forces mid-stream cuts that leave switches
		// pending, so the equivalence must survive partially-applied storms.
		const batchSize = 3
		queue := scout.NewEventQueue(scout.EventQueueOptions{Cap: 64, BatchSize: batchSize})
		// apply feeds one batch to the streaming session, tallying what
		// the session's collection counters must add up to.
		var applied, namedSwitches int
		apply := func(batch scout.EventBatch) (*scout.Report, error) {
			applied++
			namedSwitches += len(batch.Switches)
			return streamSess.ApplyEvents(batch)
		}

		compare := func(step int) {
			t.Helper()
			// Drain everything pending, then take a fresh report at the
			// current clock (an empty batch is a pure replay).
			for _, ev := range cursor.Drain() {
				queue.Push(ev)
			}
			for queue.Len() > 0 {
				if _, err := apply(queue.Cut(f.Now())); err != nil {
					t.Fatalf("step %d: ApplyEvents: %v", step, err)
				}
			}
			got, err := apply(scout.EventBatch{})
			if err != nil {
				t.Fatalf("step %d: ApplyEvents(empty): %v", step, err)
			}
			want, err := refSess.AnalyzeEpoch(collector.Snapshot())
			if err != nil {
				t.Fatalf("step %d: AnalyzeEpoch: %v", step, err)
			}
			g, w := marshalReport(t, got), marshalReport(t, want)
			if !bytes.Equal(g, w) {
				t.Fatalf("workers=%d step %d: streaming report diverged from full AnalyzeEpoch\nstream: %s\nfull:   %s",
					workers, step, g, w)
			}
		}
		compare(-1) // baseline: both sessions anchor on the same full state

		rng := rand.New(rand.NewSource(23))
		switches := f.Topology().Switches()
		var filters []scout.ObjectID
		for id := range f.Policy().Filters {
			filters = append(filters, id)
		}
		sort.Slice(filters, func(i, j int) bool { return filters[i] < filters[j] })

		for step := 0; step < 12; step++ {
			// Random fabric mutation; every op emits events for the
			// switches it touches.
			switch rng.Intn(3) {
			case 0:
				if _, err := f.EvictTCAM(switches[rng.Intn(len(switches))], 1+rng.Intn(2)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := f.CorruptTCAM(switches[rng.Intn(len(switches))], 1, tcam.CorruptDstEPG); err != nil {
					t.Fatal(err)
				}
			case 2:
				if _, err := f.InjectObjectFault(scout.FilterRef(filters[rng.Intn(len(filters))]), 0.3); err != nil {
					t.Fatal(err)
				}
			}
			// Stream the new events; apply any size-triggered cuts as they
			// come (these may leave switches pending past this step).
			for _, ev := range cursor.Drain() {
				if queue.Push(ev) {
					if _, err := apply(queue.Cut(f.Now())); err != nil {
						t.Fatal(err)
					}
				}
			}
			if step%4 == 3 {
				compare(step)
			}
		}
		compare(12)

		st := streamSess.Stats()
		if st.EventBatches == 0 || st.EventSwitchesAliased == 0 {
			t.Fatalf("streaming path not engaged: %+v", st)
		}
		// Collection accounting: the first batch (empty, no epoch to alias)
		// was the full baseline collection; every later one re-read exactly
		// the switches it named and aliased the rest.
		if st.EventBatches != applied-1 {
			t.Fatalf("session counted %d partial refreshes over %d applied batches, want all but the baseline",
				st.EventBatches, applied)
		}
		if st.EventSwitchesRead != namedSwitches {
			t.Fatalf("partial refreshes read %d switches, want exactly the %d batch members",
				st.EventSwitchesRead, namedSwitches)
		}
		// The drained queue lost and duplicated no dirty mark, and never
		// cut past its batch size — which bounds re-check work per batch.
		if qs := queue.Stats(); qs.BatchedSwitches != qs.Pushed-qs.Coalesced ||
			qs.BatchedSwitches != namedSwitches || qs.MaxBatch > batchSize {
			t.Fatalf("queue stats %+v: want batched = pushed - coalesced = %d switches named, batches of at most %d",
				qs, namedSwitches, batchSize)
		}
		if got, want := st.EventSwitchesRead+st.EventSwitchesAliased, st.EventBatches*len(switches); got != want {
			t.Fatalf("read %d + aliased %d switches, want batches x switches = %d",
				st.EventSwitchesRead, st.EventSwitchesAliased, want)
		}
		finals = append(finals, marshalReport(t, mustLastReport(t, streamSess)))
	}
	for i := 1; i < len(finals); i++ {
		if !bytes.Equal(finals[0], finals[i]) {
			t.Fatal("final streaming reports differ across worker counts")
		}
	}
}

// TestApplyEventsCountsWhatItRead pins the collection counters to what a
// partial refresh did rather than to the batch's length: a batch naming a
// switch twice re-reads it once and aliases every other switch, the report
// still matches a cold analysis, and a refresh whose analysis fails counts
// nothing.
func TestApplyEventsCountsWhatItRead(t *testing.T) {
	f := faultyFabric(t, 11)
	sess, err := scout.NewSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyEvents(scout.EventBatch{}); err != nil { // full baseline
		t.Fatal(err)
	}
	n := f.Topology().NumSwitches()
	sw := f.Topology().Switches()[1]
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
	cold, err := scout.NewAnalyzer().Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
		t.Error("duplicated switch: report differs from cold analyzer")
	}

	// A VRF past the checker's 16-bit field makes the re-check itself fail.
	s, err := f.Switch(sw)
	if err != nil {
		t.Fatal(err)
	}
	bad := scout.Rule{Match: rule.Match{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 80}, Action: rule.Allow}
	if err := s.TCAM().Install(bad); err != nil {
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
// twice reads it once and aliases every other switch, and a switch the
// previous epoch lacked simply joins as one more read.
func TestSnapshotSwitchesCountsWhatItRead(t *testing.T) {
	f := faultyFabric(t, 11)
	c := scout.NewCollector(f, 4)
	e1 := c.Snapshot()
	n := f.Topology().NumSwitches()
	sw := f.Topology().Switches()[1]
	removeOneRule(t, f, sw)

	e2, err := c.SnapshotSwitches([]scout.ObjectID{sw, sw})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PartialSnapshots != 1 || st.SwitchesRead != n+1 || st.SwitchesAliased != n-1 {
		t.Errorf("duplicated switch: %d partial epochs, read %d, aliased %d; want 1, %d (the full epoch's %d + 1), %d",
			st.PartialSnapshots, st.SwitchesRead, st.SwitchesAliased, n+1, n, n-1)
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
	if after := c.Stats(); after != st {
		t.Errorf("failed partial epoch moved the counters: %+v -> %+v", st, after)
	}
}

// mustLastReport replays the session's current verdicts as a report (an
// empty batch reads nothing).
func mustLastReport(t *testing.T, s *scout.Session) *scout.Report {
	t.Helper()
	rep, err := s.ApplyEvents(scout.EventBatch{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
