package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("10, 25,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 25 || got[2] != 50 {
		t.Errorf("parseInts = %v, want [10 25 50]", got)
	}
	if _, err := parseInts("10,abc"); err == nil {
		t.Error("bad count must fail")
	}
}

// TestRunScaleSmoke runs the scalability sweep at a toy switch count, the
// cheapest experiment that still spans workload generation, compilation,
// risk-model build, and localization.
func TestRunScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is seconds-scale")
	}
	var out bytes.Buffer
	cfg := config{experiment: "scale", scale: 0.05, seed: 3, runs: 1, maxFaults: 1, switchList: "4"}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Scalability") {
		t.Errorf("output missing scalability header:\n%s", out.String())
	}
}

// TestRunRejectsUnknownList guards the flag plumbing: a malformed
// -switches list must fail the scale experiment, not silently no-op.
func TestRunRejectsUnknownList(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "scale", scale: 0.05, seed: 3, runs: 1, maxFaults: 1, switchList: "4,oops"}
	if err := run(cfg, &out); err == nil {
		t.Error("malformed -switches must error")
	}
}

// TestRunRejectsUnknownExperiment guards the experiment name: a name
// outside the paper set — a typo, or one of the retired systems
// experiments a stale CI step might still pass — must fail naming the
// valid ones, not print nothing and exit 0.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, name := range []string{"bogus", "foldshare", ""} {
		var out bytes.Buffer
		err := run(config{experiment: name, scale: 0.05, seed: 3}, &out)
		if err == nil {
			t.Fatalf("experiment %q must error", name)
		}
		if !strings.Contains(err.Error(), "fig10") || !strings.Contains(err.Error(), "all") {
			t.Errorf("experiment %q: error %q should list the valid names", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("experiment %q printed output before failing:\n%s", name, out.String())
		}
	}
}

// TestRunRejectsBadFlags: a scale, run count, fault count or noise level
// no experiment can use fails naming its flag, before any work. A
// non-positive scale used to print itself and run the full production
// spec; zero runs or faults fell back to defaults.
func TestRunRejectsBadFlags(t *testing.T) {
	ok := config{experiment: "fig3", scale: 0.05, seed: 3, runs: 1, maxFaults: 1}
	for _, tc := range []struct {
		flag string
		edit func(*config)
	}{
		{"-scale", func(c *config) { c.scale = -1 }},
		{"-scale", func(c *config) { c.scale = 0 }},
		{"-scale", func(c *config) { c.scale = math.NaN() }},
		{"-scale", func(c *config) { c.scale = math.Inf(1) }},
		{"-runs", func(c *config) { c.runs = 0 }},
		{"-faults", func(c *config) { c.maxFaults = 0 }},
		{"-noise", func(c *config) { c.noise = -1 }},
	} {
		cfg := ok
		tc.edit(&cfg)
		var out bytes.Buffer
		err := run(cfg, &out)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: error %v, want one naming %s", cfg, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%+v printed output before failing:\n%s", cfg, out.String())
		}
	}
}
