package fabric

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
)

// threeTier builds the Figure 1 example used throughout the fabric tests.
func threeTier(t testing.TB) (*policy.Policy, *topo.Topology) {
	t.Helper()
	p := policy.New("three-tier")
	p.AddVRF(policy.VRF{ID: 101})
	p.AddEPG(policy.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(policy.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(policy.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	p.AddEndpoint(policy.Endpoint{ID: 13, EPG: 3, Switch: 3})
	p.AddFilter(policy.Filter{ID: 80, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddFilter(policy.Filter{ID: 700, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 700)}})
	p.AddContract(policy.Contract{ID: 201, Filters: []object.ID{80}})
	p.AddContract(policy.Contract{ID: 202, Filters: []object.ID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	return p, topo.FromPolicy(p)
}

func newFabric(t testing.TB, opts Options) *Fabric {
	t.Helper()
	p, tp := threeTier(t)
	f, err := New(p, tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDeployRendersAllRules(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	d := f.Deployment()
	for _, sw := range f.topology.Switches() {
		got, err := f.CollectTCAM(sw)
		if err != nil {
			t.Fatal(err)
		}
		want := d.RulesFor(sw)
		if len(got) != len(want) {
			t.Errorf("switch %d: %d TCAM rules, want %d", sw, len(got), len(want))
		}
		gotKeys := rule.KeySet(got)
		for _, r := range want {
			if _, ok := gotKeys[r.Key()]; !ok {
				t.Errorf("switch %d missing rule %v", sw, r)
			}
		}
	}
}

func TestDeployIsIdempotent(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	before, _ := f.CollectTCAM(2)
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	after, _ := f.CollectTCAM(2)
	if len(before) != len(after) {
		t.Errorf("redeploy changed rule count: %d -> %d", len(before), len(after))
	}
}

func TestUnknownSwitchErrors(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if _, err := f.Switch(99); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("err = %v, want ErrUnknownSwitch", err)
	}
	if _, err := f.CollectTCAM(99); err == nil {
		t.Error("CollectTCAM(99) must fail")
	}
	if err := f.Disconnect(99); err == nil {
		t.Error("Disconnect(99) must fail")
	}
}

func TestDisconnectBlocksUpdatesAndLogsFault(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := f.Disconnect(2); err != nil {
		t.Fatal(err)
	}
	before, _ := f.CollectTCAM(2)

	// Push a new filter into the App-DB contract; S2 must miss it.
	if err := f.AddFilter(policy.Filter{ID: 443, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 443)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(202, 443); err != nil {
		t.Fatal(err)
	}
	after, _ := f.CollectTCAM(2)
	if len(after) != len(before) {
		t.Errorf("unreachable switch must not receive rules: %d -> %d", len(before), len(after))
	}
	// S3 (reachable, hosts DB) must have the new rules.
	s3, _ := f.CollectTCAM(3)
	found := false
	for _, r := range s3 {
		if r.Match.PortLo == 443 {
			found = true
		}
	}
	if !found {
		t.Error("reachable switch 3 missing the new 443 rules")
	}
	// Fault log must carry the unreachable event, still active.
	active := f.FaultLog().ActiveAt(f.Now())
	if len(active) != 1 || active[0].Code != faultlog.FaultSwitchUnreachable || active[0].Switch != 2 {
		t.Errorf("active faults = %v", active)
	}

	// Reconnect clears the fault but does NOT resync (the paper's
	// inconsistency persists until a full redeploy).
	if err := f.Reconnect(2); err != nil {
		t.Fatal(err)
	}
	if len(f.FaultLog().ActiveAt(f.Now())) != 0 {
		t.Error("fault must clear on reconnect")
	}
	again, _ := f.CollectTCAM(2)
	if len(again) != len(before) {
		t.Error("reconnect must not auto-resync")
	}
	// A full Deploy reconciles.
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	resynced, _ := f.CollectTCAM(2)
	if len(resynced) <= len(before) {
		t.Error("redeploy after reconnect must install the missed rules")
	}
}

func TestAgentCrashQueuesPendingRules(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashAgent(3); err != nil {
		t.Fatal(err)
	}
	before, _ := f.CollectTCAM(3)

	if err := f.AddFilter(policy.Filter{ID: 8443, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 8443)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFilterToContract(202, 8443); err != nil {
		t.Fatal(err)
	}
	mid, _ := f.CollectTCAM(3)
	if len(mid) != len(before) {
		t.Error("crashed agent must not render new rules")
	}
	// Restart renders the queued instructions.
	if err := f.RestartAgent(3); err != nil {
		t.Fatal(err)
	}
	after, _ := f.CollectTCAM(3)
	if len(after) <= len(before) {
		t.Error("restart must flush pending rules into TCAM")
	}
	// Crash + restart leave a cleared fault in the log.
	faults := f.FaultLog().OnSwitch(3)
	if len(faults) != 1 || faults[0].Code != faultlog.FaultAgentCrash || faults[0].Cleared.IsZero() {
		t.Errorf("fault log = %+v", faults)
	}
}

// TestRestartAgentReconcilesQueuedInstructions: what a restarted agent
// applies is its queue as later pushes left it. A queued rule that a later
// push withdrew must not be rendered, and a withdrawal delivered while the
// agent was down must reach the TCAM — after the restart TCAM, agent view
// and controller agree.
func TestRestartAgentReconcilesQueuedInstructions(t *testing.T) {
	agree := func(t *testing.T, f *Fabric) {
		t.Helper()
		got, _ := f.CollectTCAM(3)
		want := f.Deployment().RulesFor(3)
		s, _ := f.Switch(3)
		if len(got) != len(want) || len(s.view) != len(want) {
			t.Fatalf("TCAM holds %d rules, agent view %d, controller wants %d", len(got), len(s.view), len(want))
		}
		have := rule.KeySet(got)
		for _, r := range want {
			if _, ok := have[r.Key()]; !ok {
				t.Errorf("TCAM is missing %v", r)
			}
		}
	}
	crashed := func(t *testing.T) *Fabric {
		t.Helper()
		f := newFabric(t, Options{Seed: 1})
		if err := f.Deploy(); err != nil {
			t.Fatal(err)
		}
		if err := f.CrashAgent(3); err != nil {
			t.Fatal(err)
		}
		return f
	}
	t.Run("queued rule withdrawn before restart", func(t *testing.T) {
		f := crashed(t)
		if err := f.AddFilter(policy.Filter{ID: 8443, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 8443)}}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddFilterToContract(202, 8443); err != nil {
			t.Fatal(err)
		}
		if err := f.RemoveFilterFromContract(202, 8443); err != nil {
			t.Fatal(err)
		}
		cursor := f.EventLog().TailCursor()
		if err := f.RestartAgent(3); err != nil {
			t.Fatal(err)
		}
		agree(t, f)
		if evs := cursor.Drain(); len(evs) != 0 {
			t.Errorf("restart wrote nothing to TCAM but emitted %v", evs)
		}
	})
	t.Run("withdrawal delivered while down", func(t *testing.T) {
		f := crashed(t)
		if err := f.RemoveFilterFromContract(202, 700); err != nil {
			t.Fatal(err)
		}
		if mid, _ := f.CollectTCAM(3); len(mid) != 5 {
			t.Fatalf("crashed agent applied a withdrawal: %d rules", len(mid))
		}
		cursor := f.EventLog().TailCursor()
		if err := f.RestartAgent(3); err != nil {
			t.Fatal(err)
		}
		agree(t, f)
		evs := cursor.Drain()
		if len(evs) != 1 || evs[0].Kind != faultlog.EventTCAMChange || evs[0].Switch != 3 {
			t.Errorf("restart events = %v, want one TCAM change on switch 3", evs)
		}
	})
	t.Run("withdrawn then re-added while down", func(t *testing.T) {
		f := crashed(t)
		before, _ := f.CollectTCAM(3)
		if err := f.RemoveFilterFromContract(202, 700); err != nil {
			t.Fatal(err)
		}
		if err := f.AddFilterToContract(202, 700); err != nil {
			t.Fatal(err)
		}
		if err := f.RestartAgent(3); err != nil {
			t.Fatal(err)
		}
		agree(t, f)
		if after, _ := f.CollectTCAM(3); !rule.SlicesEqual(before, after) {
			t.Error("a rule withdrawn and re-added while the agent was down must stay where it was")
		}
	})
}

func TestTCAMOverflowRaisesFault(t *testing.T) {
	p, tp := threeTier(t)
	f, err := New(p, tp, Options{Seed: 1, TCAMCapacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	// S2 wants 7 rules but only 3 fit.
	s2, _ := f.CollectTCAM(2)
	if len(s2) != 3 {
		t.Errorf("S2 rules = %d, want capacity 3", len(s2))
	}
	overflow := false
	for _, flt := range f.FaultLog().OnSwitch(2) {
		if flt.Code == faultlog.FaultTCAMOverflow {
			overflow = true
		}
	}
	if !overflow {
		t.Error("overflow fault must be logged for S2")
	}
}

func TestInjectObjectFaultFull(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	removed, err := f.InjectObjectFault(object.Filter(700), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Filter 700 renders 2 rules on S2 and 2 on S3.
	if removed != 4 {
		t.Errorf("removed = %d, want 4", removed)
	}
	for _, sw := range []object.ID{2, 3} {
		rules, _ := f.CollectTCAM(sw)
		for _, r := range rules {
			if r.Match.PortLo == 700 {
				t.Errorf("switch %d still has port-700 rule", sw)
			}
		}
	}
	// The change log records a recent action on the object.
	if _, ok := f.ChangeLog().LastChange(object.Filter(700)); !ok {
		t.Error("object fault must leave a change-log trace")
	}
}

func TestInjectObjectFaultPartial(t *testing.T) {
	f := newFabric(t, Options{Seed: 7})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	removed, err := f.InjectObjectFault(object.Filter(700), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // half of 4
		t.Errorf("removed = %d, want 2", removed)
	}
}

func TestInjectObjectFaultValidation(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if _, err := f.InjectObjectFault(object.Filter(700), 1.0); err == nil {
		t.Error("injection before Deploy must fail")
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if n, err := f.InjectObjectFault(object.Filter(700), frac); err == nil {
			t.Errorf("fraction %v must be rejected (removed %d rules)", frac, n)
		}
	}
	// Unknown object: no instances, no error, nothing removed.
	n, err := f.InjectObjectFault(object.Filter(9999), 1.0)
	if err != nil || n != 0 {
		t.Errorf("unknown object: n=%d err=%v", n, err)
	}
}

func TestRemoveFilterFromContract(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveFilterFromContract(202, 700); err != nil {
		t.Fatal(err)
	}
	s2, _ := f.CollectTCAM(2)
	for _, r := range s2 {
		if r.Match.PortLo == 700 {
			t.Error("removed filter's rules must be deleted from TCAM")
		}
	}
	if err := f.RemoveFilterFromContract(202, 700); err == nil {
		t.Error("removing an unattached filter must fail")
	}
	if err := f.RemoveFilterFromContract(999, 80); err == nil {
		t.Error("unknown contract must fail")
	}
}

func TestAddBindingDeploysNewPair(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	// Bind Web-DB with the Web-App contract: S1 and S3 gain rules.
	if err := f.AddBinding(1, 3, 201); err != nil {
		t.Fatal(err)
	}
	s1, _ := f.CollectTCAM(1)
	found := false
	for _, r := range s1 {
		if (r.Match.SrcEPG == 1 && r.Match.DstEPG == 3) || (r.Match.SrcEPG == 3 && r.Match.DstEPG == 1) {
			found = true
		}
	}
	if !found {
		t.Error("S1 must carry the new Web-DB rules")
	}
	if _, ok := f.ChangeLog().LastChange(object.Contract(201)); !ok {
		t.Error("AddBinding must log changes")
	}
}

func TestCorruptAndEvictTCAM(t *testing.T) {
	f := newFabric(t, Options{Seed: 5})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	damaged, err := f.CorruptTCAM(2, 2, tcam.CorruptVRF)
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) == 0 {
		t.Error("corruption should damage entries")
	}
	// Silent fault: no fault-log event.
	for _, flt := range f.FaultLog().OnSwitch(2) {
		if flt.Code == faultlog.FaultTCAMCorruption {
			t.Error("TCAM corruption must not be logged (silent fault)")
		}
	}

	evicted, err := f.EvictTCAM(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 {
		t.Errorf("evicted = %d", len(evicted))
	}
}

func TestCollectAll(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	all := f.CollectAll()
	if len(all) != 3 {
		t.Errorf("CollectAll switches = %d", len(all))
	}
	for sw, rules := range all {
		if len(rules) == 0 {
			t.Errorf("switch %d snapshot empty", sw)
		}
	}
}

func TestNewRejectsInvalidInputs(t *testing.T) {
	p, tp := threeTier(t)
	p.Bind(1, 999, 201)
	if _, err := New(p, tp, Options{}); err == nil {
		t.Error("invalid policy must be rejected")
	}

	p2, _ := threeTier(t)
	badTopo := topo.New(1) // missing switches 2, 3
	if _, err := New(p2, badTopo, Options{}); err == nil {
		t.Error("topology not covering endpoints must be rejected")
	}
}

func TestClockAdvances(t *testing.T) {
	f := newFabric(t, Options{Seed: 1})
	t0 := f.Now()
	f.RecordChange(faultlog.OpModify, object.Filter(80), "note")
	if !f.Now().After(t0) {
		t.Error("operations must advance the logical clock")
	}
}

func TestFabricPolicyCloneIsolation(t *testing.T) {
	p, tp := threeTier(t)
	f, err := New(p, tp, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's policy must not affect the fabric.
	p.AddEPG(policy.EPG{ID: 99, VRF: 101})
	if _, ok := f.pol.EPGs[99]; ok {
		t.Error("fabric must clone the policy at construction")
	}
}

// TestRefusedEditLeavesFabricDeployable: an edit Deploy would refuse — an
// unknown EPG or contract, a binding across VRFs, an inverted port range —
// is refused before it changes the policy or the change log, so the next
// valid edit and a plain Deploy still succeed. Such an edit used to stay in
// the policy, and every later Deploy failed on it. So is an edit that cannot
// mean what it says: a filter ID the policy holds (filter 80 is shared by
// contracts 201 and 202), a filter the contract already references, and a
// binding the policy holds.
func TestRefusedEditLeavesFabricDeployable(t *testing.T) {
	p, _ := threeTier(t)
	p.AddVRF(policy.VRF{ID: 102})
	p.AddEPG(policy.EPG{ID: 4, Name: "Mgmt", VRF: 102})
	p.AddEndpoint(policy.Endpoint{ID: 14, EPG: 4, Switch: 3})
	f, err := New(p, topo.FromPolicy(p), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	inverted := policy.Filter{ID: 443, Entries: []policy.FilterEntry{
		{Proto: rule.ProtoTCP, PortLo: 9, PortHi: 1, Action: rule.Allow},
	}}
	for i, tc := range []struct {
		name, want string
		edit       func() error
	}{
		{"unknown-epg", "unknown epg 99999", func() error { return f.AddBinding(1, 99999, 201) }},
		{"unknown-contract", "unknown contract 999", func() error { return f.AddBinding(1, 2, 999) }},
		{"cross-vrf", "crosses VRFs", func() error { return f.AddBinding(1, 4, 201) }},
		{"inverted-range", "inverted port range", func() error { return f.AddFilter(inverted) }},
		{"duplicate-filter", "filter 80 already exists", func() error {
			return f.AddFilter(policy.Filter{ID: 80, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 8080)}})
		}},
		{"duplicate-attach", "contract 201 already references filter 80", func() error { return f.AddFilterToContract(201, 80) }},
		{"duplicate-binding", "contract 201 is already bound to epgs 2-1", func() error { return f.AddBinding(2, 1, 201) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every change-log entry is stamped with a fresh tick of the clock.
			before, at := f.pol.Clone(), f.Now()
			err := tc.edit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("edit returned %v, want an error naming %q", err, tc.want)
			}
			if !reflect.DeepEqual(f.pol, before) {
				t.Error("a refused edit changed the policy")
			}
			if !f.Now().Equal(at) {
				t.Error("a refused edit logged a change")
			}
			port := uint16(8443 + i) // each row's valid edit adds a filter of its own
			if err := f.AddFilter(policy.Filter{ID: object.ID(port), Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, port)}}); err != nil {
				t.Fatalf("a valid edit after the refused one: %v", err)
			}
			if err := f.Deploy(); err != nil {
				t.Fatalf("Deploy after the refused edit: %v", err)
			}
		})
	}
}
