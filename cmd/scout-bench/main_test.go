package main

import (
	"bytes"
	"math"
	"slices"
	"strconv"
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

// TestRunScaleSmoke runs the scalability sweep at toy switch counts, the
// cheapest experiment that still deploys, faults, checks and localizes
// through the product, and checks its shape: the header names the model's
// size and the three Trace stages, there is one row per -switches count,
// in order, and every stage cell reads as non-negative seconds.
// TestFigures pins the sizes and drops the stage columns, which are wall
// times.
func TestRunScaleSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "scale", scale: 0.05, seed: 3, runs: 1, maxFaults: 1, switchList: "4,2"}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], "Scalability") {
		t.Fatalf("output missing scalability header:\n%s", out.String())
	}
	columns := []string{"switches", "elements", "risks", "build-secs", "check-secs", "localize-secs"}
	if got := strings.Fields(lines[1]); !slices.Equal(got, columns) {
		t.Errorf("columns %v, want %v", got, columns)
	}
	counts, rows := strings.Split(cfg.switchList, ","), lines[2:]
	if len(rows) != len(counts) {
		t.Fatalf("%d rows, want one per count of -switches %s:\n%s", len(rows), cfg.switchList, out.String())
	}
	for i, row := range rows {
		cells := strings.Fields(row)
		if len(cells) != len(columns) || cells[0] != counts[i] {
			t.Errorf("row %q, want %d cells for %s switches", row, len(columns), counts[i])
			continue
		}
		for j, cell := range cells[3:] {
			if secs, err := strconv.ParseFloat(cell, 64); err != nil || !(secs >= 0) {
				t.Errorf("%s switches: %s %q is not non-negative seconds", counts[i], columns[3+j], cell)
			}
		}
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

// TestRunRejectsBadFlags: a scale, run count, fault count or switch list
// no experiment can use fails naming its flag, before any work. A
// non-positive scale used to print itself and run the full production
// spec, and one that overflowed a count ran every figure on 2 EPGs; zero
// runs or faults fell back to defaults; a zero or empty switch count
// failed only after every other table had printed.
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
		{"-scale", func(c *config) { c.scale = 1e300 }},
		{"-switches", func(c *config) { c.experiment, c.switchList = "all", "0" }},
		{"-switches", func(c *config) { c.experiment, c.switchList = "all", "10,,20" }},
		{"-switches", func(c *config) { c.experiment, c.switchList = "scale", "4,-1" }},
		{"-runs", func(c *config) { c.runs = 0 }},
		{"-faults", func(c *config) { c.maxFaults = 0 }},
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
