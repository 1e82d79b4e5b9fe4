package scenario

import (
	"slices"
	"strings"
	"testing"

	"scout/internal/correlate"
	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
	"scout/internal/workload"
)

func threeTierFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	p := policy.New("three-tier")
	p.AddVRF(policy.VRF{ID: 101})
	p.AddEPG(policy.EPG{ID: 1, VRF: 101})
	p.AddEPG(policy.EPG{ID: 2, VRF: 101})
	p.AddEPG(policy.EPG{ID: 3, VRF: 101})
	p.AddEndpoint(policy.Endpoint{ID: 11, EPG: 1, Switch: 1})
	p.AddEndpoint(policy.Endpoint{ID: 12, EPG: 2, Switch: 2})
	p.AddEndpoint(policy.Endpoint{ID: 13, EPG: 3, Switch: 3})
	p.AddFilter(policy.Filter{ID: 80, Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, 80)}})
	p.AddContract(policy.Contract{ID: 201, Filters: []object.ID{80}})
	p.AddContract(policy.Contract{ID: 202, Filters: []object.ID{80}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	f, err := fabric.New(p, topo.FromPolicy(p), fabric.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const unresponsiveJSON = `{
  "name": "unresponsive switch during filter push",
  "steps": [
    {"op": "deploy"},
    {"op": "disconnect", "switch": 2},
    {"op": "add-filter", "filter": {"id": 443, "name": "https", "proto": 6, "portLo": 443, "portHi": 443}},
    {"op": "attach-filter", "contract": 202, "filterId": 443}
  ]
}`

func TestParseAndRunUnresponsiveSwitch(t *testing.T) {
	sc, err := Parse([]byte(unresponsiveJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name == "" || len(sc.Steps) != 4 {
		t.Fatalf("parsed scenario: %+v", sc)
	}
	f := threeTierFabric(t)
	res, err := sc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 4 {
		t.Errorf("StepsRun = %d", res.StepsRun)
	}
	// Effect check: switch 2 missed the 443 rules, switch 3 has them.
	tcams := f.CollectAll()
	s2, s3 := tcams[2], tcams[3]
	has443 := func(rules []rule.Rule) bool {
		for _, r := range rules {
			if r.Match.PortLo == 443 {
				return true
			}
		}
		return false
	}
	if has443(s2) {
		t.Error("disconnected switch must miss the new filter")
	}
	if !has443(s3) {
		t.Error("reachable switch must have the new filter")
	}
}

func TestRunAllOps(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "name": "kitchen sink",
	  "steps": [
	    {"op": "deploy"},
	    {"op": "crash-agent", "switch": 1},
	    {"op": "restart-agent", "switch": 1},
	    {"op": "disconnect", "switch": 3},
	    {"op": "reconnect", "switch": 3},
	    {"op": "bind", "from": 1, "to": 3, "contract": 201},
	    {"op": "inject", "object": "filter:80", "fraction": 0.5},
	    {"op": "corrupt", "switch": 2, "count": 2, "field": "vrf"},
	    {"op": "evict", "switch": 2, "count": 1},
	    {"op": "detach-filter", "contract": 202, "filterId": 80}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := threeTierFabric(t)
	res, err := sc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 10 {
		t.Errorf("StepsRun = %d, want 10", res.StepsRun)
	}
	if res.RulesRemoved == 0 {
		t.Error("inject+evict must remove rules")
	}
	if res.RulesCorrupted == 0 {
		t.Error("corrupt must damage rules")
	}
}

func TestParseRejectsBadScenarios(t *testing.T) {
	bad := []struct {
		name string
		json string
		want string
	}{
		{"malformed", `{`, "decode"},
		{"unknown-op", `{"steps":[{"op":"explode"}]}`, "unknown op"},
		{"inject-no-object", `{"steps":[{"op":"inject"}]}`, "requires object"},
		{"inject-bad-ref", `{"steps":[{"op":"inject","object":"nope:1"}]}`, "unknown object kind"},
		{"inject-bad-fraction", `{"steps":[{"op":"inject","object":"filter:1","fraction":2}]}`, "fraction 2 out of (0,1]"},
		{"inject-zero-fraction", `{"steps":[{"op":"inject","object":"filter:1","fraction":0}]}`, "fraction 0 out of (0,1]"},
		{"filter-missing", `{"steps":[{"op":"add-filter"}]}`, "requires filter"},
		{"filter-inverted", `{"steps":[{"op":"add-filter","filter":{"id":1,"portLo":9,"portHi":1}}]}`, "inverted"},
		{"attach-incomplete", `{"steps":[{"op":"attach-filter","contract":1}]}`, "requires contract and filterId"},
		{"corrupt-bad-field", `{"steps":[{"op":"corrupt","field":"checksum"}]}`, "unknown corruption field"},
		{"corrupt-count-over-limit", `{"steps":[{"op":"corrupt","switch":1,"count":4097}]}`, "over 4096"},
		{"corrupt-count-negative", `{"steps":[{"op":"corrupt","switch":1,"count":-7}]}`, "corrupt count -7 is negative"},
		{"evict-count-negative", `{"steps":[{"op":"evict","switch":1,"count":-7}]}`, "evict count -7 is negative"},
		{"bind-no-epgs", `{"steps":[{"op":"bind","contract":201}]}`, "requires from, to and contract"},
		{"bind-no-to", `{"steps":[{"op":"bind","from":1,"contract":201}]}`, "requires from, to and contract"},
		{"expect-bad-ref", `{"steps":[],"expect":{"hypothesis":["filter:x"]}}`, "bad id"},
		{"expect-unknown-kind", `{"steps":[],"expect":{"hypothesis":["rack:1"]}}`, "unknown object kind"},
		{"expect-unknown-signature", `{"steps":[],"expect":{"causes":[{"signature":"cosmic-ray","switch":1}]}}`, `unknown signature "cosmic-ray"`},
		{"expect-cause-no-switch", `{"steps":[],"expect":{"causes":[{"signature":"agent-crash"}]}}`, `cause "agent-crash" names no switch`},
		{"unknown-step-field", `{"steps":[{"op":"inject","object":"filter:5002","fracton":0.3}]}`, `unknown field "fracton"`},
		{"unknown-top-level-field", `{"steps":[],"expct":{"hypothesis":["filter:1"]}}`, `unknown field "expct"`},
		{"trailing-data", `{"steps":[]} {"steps":[]}`, "trailing data"},
		{"trailing-garbage", `{"steps":[]}]`, "trailing data"},
		{"disconnect-no-switch", `{"steps":[{"op":"disconnect"}]}`, "disconnect requires switch"},
		{"reconnect-no-switch", `{"steps":[{"op":"reconnect"}]}`, "reconnect requires switch"},
		{"crash-agent-no-switch", `{"steps":[{"op":"crash-agent"}]}`, "crash-agent requires switch"},
		{"restart-agent-no-switch", `{"steps":[{"op":"restart-agent"}]}`, "restart-agent requires switch"},
		{"corrupt-no-switch", `{"steps":[{"op":"corrupt","field":"src"}]}`, "corrupt requires switch"},
		{"evict-no-switch", `{"steps":[{"op":"evict","count":2}]}`, "evict requires switch"},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse([]byte(tt.json))
			if err == nil {
				t.Fatal("Parse should fail")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q should contain %q", err, tt.want)
			}
		})
	}
}

func TestRunStopsAtFirstFailure(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "name": "fails mid-way",
	  "steps": [
	    {"op": "deploy"},
	    {"op": "disconnect", "switch": 99},
	    {"op": "evict", "switch": 1}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := threeTierFabric(t)
	res, err := sc.Run(f)
	if err == nil {
		t.Fatal("run must fail on unknown switch")
	}
	if res.StepsRun != 1 {
		t.Errorf("StepsRun = %d, want 1 (stop at failure)", res.StepsRun)
	}
	if !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error should name the failing step: %v", err)
	}
}

func TestInjectDefaultsToFullFault(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "steps": [
	    {"op": "deploy"},
	    {"op": "inject", "object": "filter:80"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := threeTierFabric(t)
	res, err := sc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	// Full fault on filter 80: all 8 rules (2 pairs × 2 dirs × 2 switches)
	// across S1-S3 removed.
	if res.RulesRemoved == 0 {
		t.Fatal("full fault must remove rules")
	}
	tcams := f.CollectAll()
	for _, sw := range []object.ID{1, 2, 3} {
		for _, r := range tcams[sw] {
			if r.Match.PortLo == 80 {
				t.Errorf("switch %d still has port-80 rules", sw)
			}
		}
	}
}

func TestCorruptionFieldNames(t *testing.T) {
	for _, field := range []string{"", "vrf", "src", "dst", "port"} {
		sc, err := Parse([]byte(`{"steps":[{"op":"corrupt","switch":1,"field":"` + field + `"}]}`))
		if err != nil {
			t.Fatalf("field %q rejected: %v", field, err)
		}
		f := threeTierFabric(t)
		if err := f.Deploy(); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Run(f); err != nil {
			t.Errorf("field %q run failed: %v", field, err)
		}
	}
}

// TestExpectCheck: an expect block is compared with a report's answer as
// two exact sets, in any order, each element once; an object or a cause
// too many or too few is a mismatch, and a consistent report (no
// correlation) has no causes.
func TestExpectCheck(t *testing.T) {
	sc, err := Parse([]byte(`{"steps":[],"expect":{"hypothesis":["filter:443","contract:202","filter:443"],
	  "causes":[{"signature":"unresponsive-switch","switch":2}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	hyp := []object.Ref{object.Contract(202), object.Filter(443)}
	down := &correlate.Report{RootCauses: []correlate.RankedCause{{Signature: correlate.UnresponsiveSwitch, Switch: 2}}}
	for _, c := range []struct {
		name string
		hyp  []object.Ref
		rc   *correlate.Report
		ok   bool
	}{
		{"same", hyp, down, true},
		{"reordered", []object.Ref{object.Filter(443), object.Contract(202)}, down, true},
		{"an object too many", append(slices.Clone(hyp), object.EPG(3)), down, false},
		{"an object too few", hyp[:1], down, false},
		{"another switch", hyp, &correlate.Report{RootCauses: []correlate.RankedCause{{Signature: correlate.UnresponsiveSwitch, Switch: 3}}}, false},
		{"no correlation", hyp, nil, false},
	} {
		if err := sc.Expect.Check(c.hyp, c.rc); (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// FuzzParseScenario: a scenario Parse accepts runs on a testbed fabric
// without panicking — a step may fail, which stops the run — and leaves a
// fabric the next Deploy accepts, and its expect block, if any, checks an
// empty answer without panicking. The checked-in seeds (testdata/fuzz)
// cover every op on the testbed's IDs, a bind missing its EPGs (Parse used
// to accept it, and its redeploy left an unknown EPG in the policy), a bind
// to an unknown EPG (the fabric used to keep it), a corrupt count at the
// limit, a negative evict count (Run used to evict one rule for it), and an
// expect block naming an object twice. Every inject step Parse accepts
// states no fraction or one in (0,1].
func FuzzParseScenario(f *testing.F) {
	pol, tp, err := workload.Generate(workload.TestbedSpec(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		for _, st := range sc.Steps {
			if st.Op == "inject" && st.Fraction != nil && !(*st.Fraction > 0 && *st.Fraction <= 1) {
				t.Fatalf("Parse accepted an inject fraction of %v", *st.Fraction)
			}
		}
		fab, err := fabric.New(pol, tp, fabric.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Deploy(); err != nil {
			t.Fatal(err)
		}
		_, _ = sc.Run(fab) // a failing step stops the run; that is allowed
		if err := fab.Deploy(); err != nil {
			t.Fatalf("Deploy after running %q: %v", data, err)
		}
		if sc.Expect != nil {
			_ = sc.Expect.Check(nil, nil)
		}
	})
}
