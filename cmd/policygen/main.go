// Command policygen synthesizes a network policy calibrated to the
// paper's dataset statistics and writes it as JSON, for use with
// cmd/scout.
//
// Usage:
//
//	policygen -spec production -scale 0.25 -seed 42 -out policy.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"scout"
)

// config carries the flag values so tests can drive run directly.
type config struct {
	specName string
	scale    float64
	seed     int64
	out      string
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.specName, "spec", "production", "base spec: production, testbed, or small")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "scale factor applied to EPG/contract/filter/pair counts")
	flag.Int64Var(&cfg.seed, "seed", 42, "generator seed")
	flag.StringVar(&cfg.out, "out", "", "output file (default stdout)")
	flag.Parse()

	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "policygen:", err)
		os.Exit(1)
	}
}

// buildSpec resolves the base spec and applies the scale factor.
func buildSpec(specName string, scale float64) (scout.WorkloadSpec, error) {
	var spec scout.WorkloadSpec
	switch specName {
	case "production":
		spec = scout.ProductionWorkloadSpec()
	case "testbed":
		spec = scout.TestbedWorkloadSpec()
	case "small":
		spec = scout.SmallFabricWorkloadSpec()
	default:
		return spec, fmt.Errorf("unknown spec %q (want production, testbed, or small)", specName)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return spec, fmt.Errorf("-scale %v: want a positive finite factor", scale)
	}
	for _, n := range []*int{&spec.EPGs, &spec.Contracts, &spec.Filters, &spec.TargetPairs, &spec.Switches} {
		v := float64(*n) * scale
		if v >= math.MaxInt {
			return spec, fmt.Errorf("-scale %v: scaling the %s spec's count %d overflows an int", scale, specName, *n)
		}
		*n = max(int(v), 2)
	}
	return spec, nil
}

func run(cfg config, stdout, stderr io.Writer) error {
	spec, err := buildSpec(cfg.specName, cfg.scale)
	if err != nil {
		return err
	}
	pol, _, err := scout.GenerateWorkload(spec, cfg.seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(pol, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')

	st := pol.Stats()
	fmt.Fprintf(stderr, "generated %s policy: %d VRFs, %d EPGs, %d endpoints, %d contracts, %d filters, %d EPG pairs\n",
		spec.Name, st.VRFs, st.EPGs, st.Endpoints, st.Contracts, st.Filters, st.EPGPairs)

	if cfg.out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(cfg.out, data, 0o644)
}
