package fabric

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"scout/internal/compile"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/workload"
)

// refDeploy is Deploy as it stood before the TCAM took whole batches: the
// same compile, then per switch a want map, a stale pass over the view, the
// adds re-sorted, and one Install (and, refused, one overflow fault) per
// rule. TestPushMatchesSequentialOracle holds Deploy to it.
func refDeploy(t *testing.T, f *Fabric) {
	t.Helper()
	d, err := compile.Compile(f.pol, f.topology)
	if err != nil {
		t.Fatal(err)
	}
	f.deployed = d
	for _, sw := range f.topology.Switches() {
		s, desired := f.switches[sw], d.BySwitch[sw]
		if !s.reachable {
			continue
		}
		want := make(map[rule.Key]rule.Rule, len(desired))
		for _, r := range desired {
			want[r.Key()] = r
		}
		var stale []rule.Key
		for k := range s.view {
			if _, ok := want[k]; !ok {
				delete(s.view, k)
				stale = append(stale, k)
			}
		}
		changed := false
		if !s.agentUp {
			s.withdrawn = append(s.withdrawn, stale...)
		} else if s.tcam.RemoveKeys(stale) > 0 {
			changed = true
		}
		var adds []rule.Rule
		for _, r := range desired {
			if _, ok := s.view[r.Key()]; !ok {
				adds = append(adds, r)
			}
		}
		sort.Slice(adds, func(i, j int) bool { return rule.Less(adds[i], adds[j]) })
		for _, r := range adds {
			s.view[r.Key()] = r
			if !s.agentUp {
				s.pending = append(s.pending, r)
				continue
			}
			err := s.tcam.Install(r)
			if err == nil {
				changed = true
			} else if errors.Is(err, tcam.ErrFull) {
				f.faults.Raise(f.now, faultlog.FaultTCAMOverflow, s.ID,
					fmt.Sprintf("tcam at %d/%d entries", s.tcam.Len(), s.tcam.Capacity()))
			}
		}
		if changed {
			f.emit(faultlog.EventTCAMChange, s.ID, "policy push")
		}
	}
}

func keySet(keys []rule.Key) map[rule.Key]int {
	set := make(map[rule.Key]int, len(keys))
	for _, k := range keys {
		set[k]++
	}
	return set
}

// TestPushMatchesSequentialOracle drives twin fabrics (one seed, one
// policy) through the same script, one deploying with Deploy and one with
// refDeploy, and after every step compares everything a push can touch:
// each switch's TCAM (rules in order, key set), agent view and queues, and
// the fault, event and change logs. The script covers a first push with
// tables that fill midway, a second push onto a non-empty view (stale
// withdrawals plus adds) with one agent down and one switch unreachable, an
// object fault, and the restart that applies the queue.
func TestPushMatchesSequentialOracle(t *testing.T) {
	p, tp, err := workload.Generate(workload.TestbedSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	switches := tp.Switches()
	sort.Slice(switches, func(i, j int) bool { return len(d.BySwitch[switches[i]]) < len(d.BySwitch[switches[j]]) })
	// Capacity between the smallest and the largest list: some tables take
	// everything, some fill midway.
	small, large := switches[0], switches[len(switches)-1]
	capacity := (len(d.BySwitch[small]) + len(d.BySwitch[large])) / 2
	if capacity >= len(d.BySwitch[large]) {
		t.Fatalf("no switch overflows at capacity %d", capacity)
	}

	twins := [2]*Fabric{}
	for i := range twins {
		if twins[i], err = New(p, tp, Options{Seed: 7, TCAMCapacity: capacity}); err != nil {
			t.Fatal(err)
		}
	}
	deploy := func() {
		if err := twins[0].Deploy(); err != nil {
			t.Fatal(err)
		}
		refDeploy(t, twins[1])
	}
	both := func(step func(f *Fabric) error) {
		t.Helper()
		for _, f := range twins {
			if err := step(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(stage string) {
		t.Helper()
		got, want := twins[0], twins[1]
		for _, sw := range tp.Switches() {
			g, w := got.switches[sw], want.switches[sw]
			if !rule.SlicesEqual(g.tcam.Rules(), w.tcam.Rules()) || !reflect.DeepEqual(g.tcam.Keys(), w.tcam.Keys()) {
				t.Fatalf("%s: switch %d: TCAM differs from the oracle's", stage, sw)
			}
			if !reflect.DeepEqual(g.view, w.view) {
				t.Fatalf("%s: switch %d: agent view differs from the oracle's", stage, sw)
			}
			// Stale keys are found by ranging over the view, so withdrawals
			// queue in map order: the same set, not the same sequence.
			if !reflect.DeepEqual(g.pending, w.pending) || !reflect.DeepEqual(keySet(g.withdrawn), keySet(w.withdrawn)) {
				t.Fatalf("%s: switch %d: agent queues differ from the oracle's", stage, sw)
			}
		}
		if !reflect.DeepEqual(got.faults, want.faults) {
			t.Fatalf("%s: fault log differs from the oracle's", stage)
		}
		if !reflect.DeepEqual(got.events.Since(0), want.events.Since(0)) {
			t.Fatalf("%s: event log differs from the oracle's", stage)
		}
		if !reflect.DeepEqual(got.changes, want.changes) {
			t.Fatalf("%s: change log differs from the oracle's", stage)
		}
	}

	deploy()
	same("first push")
	overflows, pushes := 0, 0
	for _, flt := range twins[0].faults.OnSwitch(large) {
		if flt.Code == faultlog.FaultTCAMOverflow {
			overflows++
		}
	}
	for _, ev := range twins[0].events.Since(0) {
		if ev.Switch == large && ev.Kind == faultlog.EventTCAMChange {
			pushes++
		}
	}
	if want := len(d.BySwitch[large]) - capacity; overflows != want || pushes != 1 {
		t.Errorf("switch %d: %d overflow faults and %d TCAM-change events, want %d and 1", large, overflows, pushes, want)
	}
	if n := len(twins[0].faults.OnSwitch(small)); n != 0 {
		t.Errorf("switch %d fits its %d rules but logged %d faults", small, len(d.BySwitch[small]), n)
	}

	// A second push: a contract loses its first filter (stale rules where
	// no other contract of the pair supplies them) and a new filter joins
	// every contract (adds everywhere).
	both(func(f *Fabric) error { return f.CrashAgent(switches[1]) })
	both(func(f *Fabric) error { return f.Disconnect(switches[2]) })
	both(func(f *Fabric) error {
		entry := p.Filters[p.Contracts[p.Bindings[0].Contract].Filters[0]].Entries[0]
		entry.PortLo, entry.PortHi = 64000, 64001
		fresh := *p.Filters[p.Contracts[p.Bindings[0].Contract].Filters[0]]
		fresh.ID, fresh.Name, fresh.Entries = 60000, "second-push", append(fresh.Entries[:0:0], entry)
		f.pol.AddFilter(fresh)
		for _, c := range f.pol.Contracts {
			c.Filters = append(c.Filters[1:len(c.Filters):len(c.Filters)], fresh.ID)
		}
		return nil
	})
	deploy()
	same("second push")
	down := twins[0].switches[switches[1]]
	if len(down.pending) == 0 || len(down.withdrawn) == 0 {
		t.Errorf("crashed agent queued %d installs and %d withdrawals; the script must produce both",
			len(down.pending), len(down.withdrawn))
	}

	both(func(f *Fabric) error {
		_, err := f.InjectObjectFault(object.Filter(60000), 0.5)
		return err
	})
	same("object fault")
	both(func(f *Fabric) error { return f.RestartAgent(switches[1]) })
	both(func(f *Fabric) error { return f.Reconnect(switches[2]) })
	deploy()
	same("restart and third push")
}
