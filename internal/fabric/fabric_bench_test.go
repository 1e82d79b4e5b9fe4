package fabric

import (
	"testing"

	"scout/internal/object"
	"scout/internal/workload"
)

// BenchmarkDeploy measures a full testbed-policy deployment (compile +
// agent reconciliation + TCAM programming).
func BenchmarkDeploy(b *testing.B) {
	p, t, err := workload.Generate(workload.TestbedSpec(), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := New(p, t, Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := f.Deploy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalChange measures an AddFilterToContract change push
// (the paper's §V-B dynamic-change workload).
func BenchmarkIncrementalChange(b *testing.B) {
	p, t, err := workload.Generate(workload.TestbedSpec(), 42)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(p, t, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		b.Fatal(err)
	}
	contract := p.Bindings[0].Contract
	filter := p.Contracts[contract].Filters[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := f.RemoveFilterFromContract(contract, filter); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := f.AddFilterToContract(contract, filter); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInjectObjectFault measures fault injection cost on the testbed
// policy and on the production policy at a quarter scale, whose ~6k-entry
// tables are what shows the per-table cost of withdrawing an object's
// rules. The withdrawn rules are reinstalled off the clock, so every
// iteration finds its object fully deployed.
func BenchmarkInjectObjectFault(b *testing.B) {
	// eval.SimSpec(0.25), spelled out because eval imports this package.
	quarter := workload.ProductionSpec()
	quarter.Name = "production-quarter"
	quarter.Switches, quarter.EPGs, quarter.Contracts = 8, 154, 97
	quarter.Filters, quarter.TargetPairs = 40, 5000
	for _, spec := range []workload.Spec{workload.TestbedSpec(), quarter} {
		b.Run(spec.Name, func(b *testing.B) {
			p, t, err := workload.Generate(spec, 42)
			if err != nil {
				b.Fatal(err)
			}
			f, err := New(p, t, Options{Seed: 1, TCAMCapacity: 1 << 17})
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Deploy(); err != nil {
				b.Fatal(err)
			}
			objs := deployedObjectRefs(f)
			if len(objs) == 0 {
				b.Fatal("no objects")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := objs[i%len(objs)]
				if _, err := f.InjectObjectFault(ref, 0.5); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for sw, rules := range f.deployed.BySwitch {
					for _, r := range rules {
						if r.HasProvenance(ref) {
							if err := f.switches[sw].tcam.Install(r); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.StartTimer()
			}
		})
	}
}

func deployedObjectRefs(f *Fabric) []object.Ref {
	set := make(object.Set)
	for _, refs := range f.Deployment().Provenance {
		for _, ref := range refs {
			set.Add(ref)
		}
	}
	return set.Sorted()
}
