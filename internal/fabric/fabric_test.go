package fabric

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
	"scout/internal/workload"
)

// Each test is a case of the runner (harness_test.go): a script, or a
// stream generated from a seed, run on twin fabrics that must agree after
// every step and keep the event contract; what a test asserts besides is
// what its script is for.

// threeTier builds the Figure 1 example used throughout the fabric tests.
func threeTier(t testing.TB) (*policy.Policy, *topo.Topology) {
	t.Helper()
	p := oracle.ThreeTier()
	return p, topo.FromPolicy(p)
}

// deployed returns twins over the three-tier example, deployed.
func deployed(t *testing.T, opts Options) *twins {
	t.Helper()
	p, tp := threeTier(t)
	h := newTwins(t, p, tp, opts)
	h.deploy()
	return h
}

func port(id object.ID) policy.Filter {
	return policy.Filter{ID: id, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, uint16(id))}}
}

// attach adds a filter of its own port to contract 202 (App-DB).
func attach(h *twins, id object.ID) {
	h.t.Helper()
	h.must("add filter", func(f *Fabric) error { return f.AddFilter(port(id)) })
	h.must("attach filter", func(f *Fabric) error { return f.AddFilterToContract(202, id) })
}

func collect(h *twins, sw object.ID) []rule.Rule { return h.f.switches[sw].tcam.Rules() }

// holds reports whether rules hold a rule of port p.
func holds(rules []rule.Rule, p uint16) bool {
	return slices.ContainsFunc(rules, func(r rule.Rule) bool { return r.Match.PortLo == p })
}

// TestPushMatchesSequentialOracle runs generated streams: on the
// three-tier example at capacities that overflow, and on the testbed
// policy at 180 entries, between its smallest switch list (117 rules) and
// its largest (241), so some tables take everything and some fill midway.
func TestPushMatchesSequentialOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		c := oracle.FromSeed(seed)
		p, tp := threeTier(t)
		newTwins(t, p, tp, Options{Seed: seed, TCAMCapacity: 3 + c.Intn(6)}).stream(c, 150)
	}
	p, tp, err := workload.Generate(workload.TestbedSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		h := newTwins(t, p, tp, Options{Seed: seed, TCAMCapacity: 180})
		h.deploy()
		h.stream(oracle.FromSeed(seed), 60)
	}
}

// FuzzFabric runs the fuzzer's bytes as a generated stream of up to 150
// steps on the three-tier example, at a capacity of 3-8 entries, which may
// overflow.
func FuzzFabric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 9, 5, 0, 1, 8, 7, 2, 6, 1, 3, 9, 0, 4, 1, 2, 0, 9, 6, 3, 1, 9, 5, 1, 0, 8, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		p, tp := threeTier(t)
		newTwins(t, p, tp, Options{Seed: int64(c.Byte()), TCAMCapacity: 3 + c.Intn(6)}).stream(c, min(len(data), 150))
	})
}

func TestDeployRendersAllRules(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	for _, sw := range h.f.topology.Switches() {
		if got, want := rule.KeySet(collect(h, sw)), rule.KeySet(h.f.Deployment().RulesFor(sw)); !reflect.DeepEqual(got, want) {
			t.Errorf("switch %d holds %v, want %v", sw, got, want)
		}
	}
}

func TestDeployIsIdempotent(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	h.deploy()
	if len(h.changed) != 0 {
		t.Errorf("a second deploy wrote switches %v", h.changed)
	}
}

func TestUnknownSwitchErrors(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	for _, op := range []func(*Fabric) (any, error){
		func(f *Fabric) (any, error) { return f.Switch(99) },
		func(f *Fabric) (any, error) { return nil, f.Disconnect(99) },
		func(f *Fabric) (any, error) { return nil, f.CrashAgent(99) },
		func(f *Fabric) (any, error) { return f.EvictTCAM(99, 1) },
	} {
		if _, err := h.do("switch 99", op); !errors.Is(err, ErrUnknownSwitch) {
			t.Errorf("err = %v, want ErrUnknownSwitch", err)
		}
	}
}

func TestDisconnectBlocksUpdatesAndLogsFault(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	h.must("disconnect", func(f *Fabric) error { return f.Disconnect(2) })
	before := collect(h, 2)
	attach(h, 443)
	if !rule.SameSlice(collect(h, 2), before) || !holds(collect(h, 3), 443) {
		t.Error("unreachable switch 2 received the new rules, or reachable switch 3 missed them")
	}
	if active := h.f.FaultLog().ActiveAt(h.f.Now()); len(active) != 1 || active[0].Code != faultlog.FaultSwitchUnreachable || active[0].Switch != 2 {
		t.Errorf("active faults = %v", active)
	}
	// Reconnect clears the fault but does not resync (the paper's
	// inconsistency persists until a full redeploy).
	h.must("reconnect", func(f *Fabric) error { return f.Reconnect(2) })
	if len(h.f.FaultLog().ActiveAt(h.f.Now())) != 0 || !rule.SameSlice(collect(h, 2), before) {
		t.Error("reconnect must clear the fault and not resync")
	}
	h.deploy()
	if !holds(collect(h, 2), 443) {
		t.Error("redeploy after reconnect must install the missed rules")
	}
}

// TestFabricEmitsEvents: the monitoring plane sees each kind of write,
// silent faults included, through the runner's per-step event check.
func TestFabricEmitsEvents(t *testing.T) {
	h := deployed(t, Options{Seed: 3})
	for _, sw := range []object.ID{1, 2} {
		h.must("disconnect", func(f *Fabric) error { return f.Disconnect(sw) })
		h.must("reconnect", func(f *Fabric) error { return f.Reconnect(sw) })
		h.do("evict", func(f *Fabric) (any, error) { return f.EvictTCAM(sw, 1) })
		h.do("corrupt", func(f *Fabric) (any, error) { return f.CorruptTCAM(sw, 1, tcam.CorruptDstEPG) })
	}
	seq := h.f.events.LastSeq()
	h.do("fault", func(f *Fabric) (any, error) { return f.InjectObjectFault(object.Filter(700), 1) })
	if len(h.changed) == 0 {
		t.Error("the object fault replaced no snapshot; the case is vacuous")
	}
	for _, ev := range h.f.events.Since(seq) {
		if ev.Kind != faultlog.EventTCAMChange {
			t.Errorf("the object fault emitted %+v, want TCAM changes only", ev)
		}
	}
}

func TestAgentCrashQueuesPendingRules(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	h.must("crash", func(f *Fabric) error { return f.CrashAgent(3) })
	attach(h, 8443)
	if holds(collect(h, 3), 8443) {
		t.Error("crashed agent must not render new rules")
	}
	h.must("restart", func(f *Fabric) error { return f.RestartAgent(3) })
	if !holds(collect(h, 3), 8443) {
		t.Error("restart must flush pending rules into TCAM")
	}
	faults := h.f.FaultLog().OnSwitch(3)
	if len(faults) != 1 || faults[0].Code != faultlog.FaultAgentCrash || faults[0].Cleared.IsZero() {
		t.Errorf("fault log = %+v", faults)
	}
}

// TestRestartAgentReconcilesQueuedInstructions: what a restarted agent
// applies is its queue as later pushes left it. A queued rule that a later
// push withdrew must not be rendered, and a withdrawal delivered while the
// agent was down must reach the TCAM, and a rule withdrawn and re-added
// stays where it was, and a rule queued twice is rendered as its last
// delivery had it — after the restart TCAM, agent view and controller
// agree.
func TestRestartAgentReconcilesQueuedInstructions(t *testing.T) {
	// web8443 is the Web→App rule of port 8443.
	web8443 := rule.Key{Match: rule.Match{VRF: 101, SrcEPG: 1, DstEPG: 2, Proto: rule.ProtoTCP, PortLo: 8443, PortHi: 8443},
		Action: rule.Allow}
	for _, tc := range []struct {
		name   string
		sw     object.ID // the crashed switch
		writes bool      // whether the restart writes the TCAM
		edits  func(h *twins)
	}{
		{"queued rule withdrawn before restart", 3, false, func(h *twins) {
			attach(h, 8443)
			h.must("detach", func(f *Fabric) error { return f.RemoveFilterFromContract(202, 8443) })
		}},
		{"withdrawal delivered while down", 3, true, func(h *twins) {
			h.must("detach", func(f *Fabric) error { return f.RemoveFilterFromContract(202, 700) })
		}},
		{"withdrawn then re-added while down", 3, false, func(h *twins) {
			h.must("detach", func(f *Fabric) error { return f.RemoveFilterFromContract(202, 700) })
			h.must("attach", func(f *Fabric) error { return f.AddFilterToContract(202, 700) })
		}},
		{"queued twice, rendered as last delivered", 2, true, func(h *twins) {
			h.must("add filter", func(f *Fabric) error { return f.AddFilter(port(8443)) })
			h.must("attach to web-app", func(f *Fabric) error { return f.AddFilterToContract(201, 8443) })
			h.must("detach", func(f *Fabric) error { return f.RemoveFilterFromContract(201, 8443) })
			h.must("attach to app-db", func(f *Fabric) error { return f.AddFilterToContract(202, 8443) })
			h.must("bind app-db to web-app", func(f *Fabric) error { return f.AddBinding(1, 2, 202) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := deployed(t, Options{Seed: 1})
			h.must("crash", func(f *Fabric) error { return f.CrashAgent(tc.sw) })
			before := collect(h, tc.sw)
			tc.edits(h)
			if !rule.SameSlice(collect(h, tc.sw), before) {
				t.Fatal("a crashed agent applied an instruction")
			}
			h.must("restart", func(f *Fabric) error { return f.RestartAgent(tc.sw) })
			if len(h.changed) > 0 != tc.writes {
				t.Errorf("the restart wrote switches %v", h.changed)
			}
			// Entries, not key sets: the queued-twice case hands InstallAll
			// one key twice, and the TCAM must hold it once.
			wantRules := h.f.Deployment().RulesFor(tc.sw)
			want, held := rule.KeySet(wantRules), collect(h, tc.sw)
			if got := rule.KeySet(held); !reflect.DeepEqual(got, want) || len(held) != len(wantRules) ||
				len(h.f.switches[tc.sw].view) != len(want) {
				t.Errorf("TCAM holds %d entries of keys %v, the agent view %d rules, the controller wants %d rules of %v",
					len(held), got, len(h.f.switches[tc.sw].view), len(wantRules), want)
			}
			if _, ok := want[web8443]; ok {
				i := slices.IndexFunc(collect(h, tc.sw), func(r rule.Rule) bool { return r.Key() == web8443 })
				j := slices.IndexFunc(wantRules, func(r rule.Rule) bool { return r.Key() == web8443 })
				if got := collect(h, tc.sw)[i]; !got.Equal(wantRules[j]) || !got.HasProvenance(object.Contract(202)) {
					t.Errorf("TCAM holds %v from %v, the controller wants it from %v, contract 202 among them",
						got, got.Provenance, wantRules[j].Provenance)
				}
			}
		})
	}
}

func TestTCAMOverflowRaisesFault(t *testing.T) {
	h := deployed(t, Options{Seed: 1, TCAMCapacity: 3})
	// S2 wants 7 rules but only 3 fit: one overflow fault per refused rule.
	overflows := 0
	for _, flt := range h.f.FaultLog().OnSwitch(2) {
		if flt.Code == faultlog.FaultTCAMOverflow {
			overflows++
		}
	}
	if len(collect(h, 2)) != 3 || overflows != 4 {
		t.Errorf("S2 holds %d rules and logged %d overflow faults, want 3 and 4", len(collect(h, 2)), overflows)
	}
}

func TestInjectObjectFaultFull(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	// Filter 700 renders 2 rules on S2 and 2 on S3.
	if removed, _ := h.do("fault", func(f *Fabric) (any, error) { return f.InjectObjectFault(object.Filter(700), 1.0) }); removed != 4 {
		t.Errorf("removed = %v, want 4", removed)
	}
	if holds(collect(h, 2), 700) || holds(collect(h, 3), 700) {
		t.Error("a port-700 rule survived")
	}
	if _, ok := h.f.ChangeLog().LastChange(object.Filter(700)); !ok {
		t.Error("object fault must leave a change-log trace")
	}
}

func TestInjectObjectFaultPartial(t *testing.T) {
	h := deployed(t, Options{Seed: 7})
	if removed, _ := h.do("fault", func(f *Fabric) (any, error) { return f.InjectObjectFault(object.Filter(700), 0.5) }); removed != 2 {
		t.Errorf("removed = %v, want half of 4", removed)
	}
}

func TestInjectObjectFaultValidation(t *testing.T) {
	p, tp := threeTier(t)
	h := newTwins(t, p, tp, Options{Seed: 1})
	inject := func(ref object.Ref, fraction float64) (any, error) {
		return h.do("fault", func(f *Fabric) (any, error) { return f.InjectObjectFault(ref, fraction) })
	}
	if _, err := inject(object.Filter(700), 1.0); err == nil {
		t.Error("injection before Deploy must fail")
	}
	h.deploy()
	for _, frac := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := inject(object.Filter(700), frac); err == nil {
			t.Errorf("fraction %v must be rejected", frac)
		}
	}
	if n, err := inject(object.Filter(9999), 1.0); err != nil || n != 0 {
		t.Errorf("unknown object: n=%v err=%v", n, err)
	}
}

func TestRemoveFilterFromContract(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	h.must("detach", func(f *Fabric) error { return f.RemoveFilterFromContract(202, 700) })
	if holds(collect(h, 2), 700) {
		t.Error("removed filter's rules must be deleted from TCAM")
	}
	for _, ids := range [][2]object.ID{{202, 700}, {999, 80}} {
		if _, err := h.do("detach", func(f *Fabric) (any, error) { return nil, f.RemoveFilterFromContract(ids[0], ids[1]) }); err == nil {
			t.Errorf("detaching filter %d from contract %d must fail", ids[1], ids[0])
		}
	}
}

func TestAddBindingDeploysNewPair(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	// Bind Web-DB with the Web-App contract: S1 and S3 gain rules.
	h.must("bind", func(f *Fabric) error { return f.AddBinding(1, 3, 201) })
	found := slices.ContainsFunc(collect(h, 1), func(r rule.Rule) bool { return r.Match.SrcEPG == 1 && r.Match.DstEPG == 3 })
	if _, ok := h.f.ChangeLog().LastChange(object.Contract(201)); !found || !ok {
		t.Error("S1 must carry the new Web-DB rules, and the change log the binding")
	}
}

func TestCorruptAndEvictTCAM(t *testing.T) {
	h := deployed(t, Options{Seed: 5})
	damaged, _ := h.do("corrupt", func(f *Fabric) (any, error) { return f.CorruptTCAM(2, 2, tcam.CorruptVRF) })
	evicted, _ := h.do("evict", func(f *Fabric) (any, error) { return f.EvictTCAM(3, 2) })
	if len(damaged.([]rule.Key)) == 0 || len(evicted.([]rule.Rule)) != 2 {
		t.Errorf("damaged %v, evicted %v", damaged, evicted)
	}
	if h.f.FaultLog().Len() != 0 {
		t.Error("corruption and eviction are silent faults: nothing may be logged")
	}
}

func TestCollectAll(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	all := h.f.CollectAll()
	for _, sw := range h.f.topology.Switches() {
		if len(all) != 3 || len(all[sw]) == 0 || !rule.SameSlice(all[sw], collect(h, sw)) {
			t.Errorf("switch %d: CollectAll over %d switches and the switch's table disagree, or the snapshot is empty", sw, len(all))
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
	if _, err := New(p2, topo.New(1), Options{}); err == nil { // missing switches 2, 3
		t.Error("topology not covering endpoints must be rejected")
	}
}

func TestClockAdvances(t *testing.T) {
	h := deployed(t, Options{Seed: 1})
	t0 := h.f.Now()
	h.must("record", func(f *Fabric) error { f.RecordChange(faultlog.OpModify, object.Filter(80), "note"); return nil })
	if !h.f.Now().After(t0) {
		t.Error("operations must advance the logical clock")
	}
}

func TestFabricPolicyCloneIsolation(t *testing.T) {
	p, tp := threeTier(t)
	h := newTwins(t, p, tp, Options{Seed: 1})
	// Mutating the caller's policy must not affect the fabric.
	p.AddEPG(policy.EPG{ID: 99, VRF: 101})
	if _, ok := h.f.pol.EPGs[99]; ok {
		t.Error("fabric must clone the policy at construction")
	}
}

// TestRefusedEditLeavesFabricDeployable: an edit Deploy would refuse (an
// unknown EPG or contract, a binding across VRFs, an inverted port range),
// or that cannot mean what it says (a filter ID the policy holds, a filter
// the contract references, a binding the policy holds, a TCAM fault on a
// fabric never deployed), is refused before it changes the policy or moves
// the clock, which every change-log entry does — the runner checks both —
// so the next valid edit and a plain Deploy still succeed. Each row runs on
// fabrics of its own, deployed unless its refusal is "before Deploy".
func TestRefusedEditLeavesFabricDeployable(t *testing.T) {
	p, _ := threeTier(t)
	p.AddVRF(policy.VRF{ID: 102})
	p.AddEPG(policy.EPG{ID: 4, Name: "Mgmt", VRF: 102})
	p.AddEndpoint(policy.Endpoint{ID: 14, EPG: 4, Switch: 3})
	inverted := policy.Filter{ID: 443, Entries: []policy.FilterEntry{
		{Proto: rule.ProtoTCP, PortLo: 9, PortHi: 1, Action: rule.Allow},
	}}
	for _, tc := range []struct {
		name, want string
		edit       func(*Fabric) error
	}{
		{"unknown-epg", "unknown epg 99999", func(f *Fabric) error { return f.AddBinding(1, 99999, 201) }},
		{"unknown-contract", "unknown contract 999", func(f *Fabric) error { return f.AddBinding(1, 2, 999) }},
		{"cross-vrf", "crosses VRFs", func(f *Fabric) error { return f.AddBinding(1, 4, 201) }},
		{"inverted-range", "inverted port range", func(f *Fabric) error { return f.AddFilter(inverted) }},
		{"duplicate-filter", "filter 80 already exists", func(f *Fabric) error { return f.AddFilter(port(80)) }},
		{"duplicate-attach", "contract 201 already references filter 80", func(f *Fabric) error { return f.AddFilterToContract(201, 80) }},
		{"duplicate-binding", "contract 201 is already bound to epgs 2-1", func(f *Fabric) error { return f.AddBinding(2, 1, 201) }},
		{"undeployed-evict", "evict TCAM before Deploy", func(f *Fabric) error { _, err := f.EvictTCAM(1, 1); return err }},
		{"undeployed-corrupt", "corrupt TCAM before Deploy", func(f *Fabric) error { _, err := f.CorruptTCAM(1, 1, tcam.CorruptVRF); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTwins(t, p, topo.FromPolicy(p), Options{Seed: 1})
			if !strings.HasSuffix(tc.want, "before Deploy") {
				h.deploy()
			}
			_, err := h.do(tc.name, func(f *Fabric) (any, error) { return nil, tc.edit(f) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("edit returned %v, want an error naming %q", err, tc.want)
			}
			h.must("a valid edit", func(f *Fabric) error { return f.AddFilter(port(8443)) })
			h.deploy()
		})
	}
}
