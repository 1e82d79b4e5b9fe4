package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"scout"
)

func TestBuildSpec(t *testing.T) {
	prod, err := buildSpec("production", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := buildSpec("testbed", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if prod.EPGs <= tb.EPGs {
		t.Errorf("production spec (%d EPGs) should dwarf testbed (%d EPGs)", prod.EPGs, tb.EPGs)
	}
	half, err := buildSpec("production", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.EPGs != prod.EPGs/2 {
		t.Errorf("scale 0.5: EPGs = %d, want %d", half.EPGs, prod.EPGs/2)
	}
	if _, err := buildSpec("nope", 1.0); err == nil {
		t.Error("unknown spec must fail")
	}
	// A scale that is not a positive finite factor, or that scales a count
	// past an int, fails naming -scale; each once generated a 2-EPG policy.
	for _, tc := range []struct {
		spec  string
		scale float64
	}{{"production", -1}, {"production", math.NaN()}, {"production", math.Inf(1)}, {"testbed", 1e300}} {
		if _, err := buildSpec(tc.spec, tc.scale); err == nil || !strings.HasPrefix(err.Error(), "-scale ") {
			t.Errorf("%s at scale %v: error %v, want one naming -scale", tc.spec, tc.scale, err)
		}
	}
}

// TestRunSmoke generates a tiny testbed policy to stdout and verifies the
// JSON round-trips through the public policy codec.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(config{specName: "testbed", scale: 0.5, seed: 3}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := scout.PolicyFromJSON(stdout.Bytes())
	if err != nil {
		t.Fatalf("output is not a loadable policy: %v", err)
	}
	if pol.Stats().EPGs == 0 {
		t.Error("generated policy has no EPGs")
	}
	if !strings.Contains(stderr.String(), "generated") {
		t.Errorf("stderr should carry the summary line, got %q", stderr.String())
	}
}

// TestRunWritesFile covers the -out path.
func TestRunWritesFile(t *testing.T) {
	path := t.TempDir() + "/policy.json"
	var stdout, stderr bytes.Buffer
	if err := run(config{specName: "testbed", scale: 0.5, seed: 3, out: path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Error("with -out, stdout should stay empty")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scout.PolicyFromJSON(data); err != nil {
		t.Fatalf("written file is not a loadable policy: %v", err)
	}
}
