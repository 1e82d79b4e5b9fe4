package compile_test

import (
	"testing"

	"scout/internal/compile"
	"scout/internal/workload"
)

// BenchmarkCompileProduction measures compiling a quarter-scale
// production policy into per-switch rules.
func BenchmarkCompileProduction(b *testing.B) {
	spec := workload.ProductionSpec()
	spec.EPGs = 150
	spec.Contracts = 100
	spec.Filters = 40
	spec.TargetPairs = 5000
	p, t, err := workload.Generate(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := compile.Compile(p, t)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.BySwitch) == 0 {
			b.Fatal("no rules")
		}
	}
}

// BenchmarkCompileTestbed measures the testbed-size compile.
func BenchmarkCompileTestbed(b *testing.B) {
	p, t, err := workload.Generate(workload.TestbedSpec(), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(p, t); err != nil {
			b.Fatal(err)
		}
	}
}
