package policy_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"scout/internal/fabric"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

// FuzzPolicyFromJSON: FromJSON never panics, and a policy it accepts is one
// the pipeline takes — it re-marshals to JSON that parses back DeepEqual,
// and it compiles and deploys on the topology its endpoints imply. The
// checked-in seeds (testdata/fuzz) are a policygen testbed policy, a null
// object of each kind (each used to panic in Validate, or for a VRF in the
// fabric), an object filed under another object's ID (compile used the
// key), a binding across VRFs, an inverted port range, and filter entries
// whose action is missing, 0, deny or 7. Every entry of an accepted policy
// allows: a filter whitelists, and the compiler's lists rest on it.
func FuzzPolicyFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := policy.FromJSON(data)
		if err != nil {
			return
		}
		for id, flt := range p.Filters {
			for i, e := range flt.Entries {
				if e.Action != rule.Allow {
					t.Fatalf("accepted %s: filter %d entry %d has action %v", data, id, i, e.Action)
				}
			}
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := policy.FromJSON(again)
		if err != nil {
			t.Fatalf("accepted %s, refused its re-marshalled %s: %v", data, again, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("%s re-parses as %s", data, again)
		}
		fab, err := fabric.New(p, topo.FromPolicy(p), fabric.Options{Seed: 1})
		if err != nil {
			t.Fatalf("fabric of %s: %v", data, err)
		}
		if err := fab.Deploy(); err != nil { // compiles the policy
			t.Fatalf("deploy of %s: %v", data, err)
		}
	})
}
