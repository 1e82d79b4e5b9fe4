package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigures pins every §VI table — the Figure 3 sharing CDF, γ on the
// testbed and in simulation, SCOUT against SCORE-0.6 and SCORE-1 on both
// risk models, the testbed end to end, SCOUT without its change-log stage,
// and the scalability sweep's model sizes — to the digit, at a scale small
// enough for -short. A mismatch prints the text testdata/figures.txt now
// holds; paste it only for a deliberate change to what localization picks.
func TestFigures(t *testing.T) {
	cfg := config{scale: 0.05, seed: 42, runs: 3, maxFaults: 4, switchList: "1,5,10"}
	checkFigures(t, "figures.txt", cfg, experimentNames()...)
}

// TestFiguresPaper pins the accuracy and γ tables at scout-bench's default
// size: -scale 0.25 -runs 30 -faults 10, the corpus the paper's figures are
// compared with.
func TestFiguresPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper-size tables take seconds")
	}
	cfg := config{scale: 0.25, seed: 42, runs: 30, maxFaults: 10}
	checkFigures(t, "figures-paper.txt", cfg, "fig7a", "fig7b", "fig8", "fig9", "fig10", "ablation")
}

// checkFigures runs each experiment under cfg and compares the output with
// testdata/<name>. The [workload] lines and every column of the
// scalability sweep after risks, its Trace stages, carry wall times and
// are dropped; TestRunScaleSmoke checks their shape.
func checkFigures(t *testing.T, name string, cfg config, names ...string) {
	var got strings.Builder
	for _, experiment := range names {
		var out bytes.Buffer
		cfg.experiment = experiment
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", experiment, err)
		}
		counts := -1 // the width of the sweep's count columns, once its header is read
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "[workload] "):
				continue
			case experiment == "scale" && strings.HasPrefix(line, "switches "):
				counts = strings.Index(line, "risks") + len("risks")
			}
			if counts >= 0 && len(line) > counts {
				line = line[:counts] + "\n"
			}
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", name)
	want, _ := os.ReadFile(path) // a missing file differs from any output
	if got.String() != string(want) {
		t.Errorf("figure tables differ from %s, which is now:\n%s", path, got.String())
	}
}
