package workload_test

import (
	"reflect"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/eval"
	"scout/internal/object"
	"scout/internal/topo"
	"scout/internal/workload"
)

// forEachDeployment runs fn on the testbed, the small fabric and the
// simulated figures' production x0.25, each generated at seed 42 and
// compiled.
func forEachDeployment(t *testing.T, fn func(t *testing.T, d *compile.Deployment, tp *topo.Topology)) {
	for _, tc := range []struct {
		name string
		spec workload.Spec
	}{
		{"testbed", workload.TestbedSpec()},
		{"small", workload.SmallFabricSpec()},
		{"sim-0.25", eval.SimSpec(0.25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, tp, err := workload.Generate(tc.spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			d, err := compile.Compile(pol, tp)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, d, tp)
		})
	}
}

// TestBuildIndexCoversDeployment holds the fault index to the deployment
// it indexes. Every instance's provenance names the object it is listed
// under, and the objects are the sorted union of the footprint's risk
// lists, the candidates an end-to-end trial draws without an index.
func TestBuildIndexCoversDeployment(t *testing.T) {
	forEachDeployment(t, func(t *testing.T, d *compile.Deployment, _ *topo.Topology) {
		idx := workload.BuildIndex(d)

		var union []object.Ref
		for _, risks := range d.Footprint.Risks {
			union = append(union, risks...)
		}
		object.SortRefs(union)
		if got, want := idx.Objects(), slices.Compact(union); len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("index lists %d objects, the footprint's risk lists %d", len(got), len(want))
		}
		for _, ref := range idx.Objects() {
			for _, in := range idx.Instances(ref) {
				if !slices.Contains(d.Provenance[in.Key], ref) {
					t.Fatalf("instance %v indexed under %v but provenance lacks it", in, ref)
				}
			}
		}
	})
}

// TestObjectsOnSwitch: a switch's index, BuildIndex over its run of the
// footprint, lists each object with exactly the whole index's instances on
// that switch, in the same order, and no object without one there.
func TestObjectsOnSwitch(t *testing.T) {
	forEachDeployment(t, func(t *testing.T, d *compile.Deployment, tp *topo.Topology) {
		idx := workload.BuildIndex(d)
		onSwitch := make(map[object.ID]map[object.Ref][]workload.Instance)
		for _, ref := range idx.Objects() {
			for _, in := range idx.Instances(ref) {
				if onSwitch[in.SP.Switch] == nil {
					onSwitch[in.SP.Switch] = make(map[object.Ref][]workload.Instance)
				}
				onSwitch[in.SP.Switch][ref] = append(onSwitch[in.SP.Switch][ref], in)
			}
		}
		for _, sw := range tp.Switches() {
			local := workload.BuildIndex(&compile.Deployment{Provenance: d.Provenance, Footprint: d.OnSwitch(sw)})
			want := onSwitch[sw]
			if got := local.Objects(); len(got) != len(want) {
				t.Fatalf("switch %d: its index lists %d objects, the whole index %d there", sw, len(got), len(want))
			}
			for ref, instances := range want {
				if got := local.Instances(ref); !reflect.DeepEqual(got, instances) {
					t.Fatalf("switch %d, %v: its index lists %v, the whole index %v", sw, ref, got, instances)
				}
			}
		}
	})
}
