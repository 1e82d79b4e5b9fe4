package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigures pins the paper's accuracy tables — γ on the testbed, SCOUT
// against SCORE-0.6 and SCORE-1 on both risk models, the testbed end to
// end, and SCOUT without its change-log stage — to the digit, at a scale
// small enough for -short. The [workload] lines carry a wall time and are
// dropped. A mismatch prints the text testdata/figures.txt now holds; paste
// it only for a deliberate change to what localization picks.
func TestFigures(t *testing.T) {
	var got strings.Builder
	for _, experiment := range []string{"fig7a", "fig8", "fig9", "fig10", "ablation"} {
		var out bytes.Buffer
		cfg := config{experiment: experiment, scale: 0.05, seed: 42, runs: 3, maxFaults: 4, noise: 5}
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", experiment, err)
		}
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(line, "[workload] ") {
				got.WriteString(line)
			}
		}
	}
	path := filepath.Join("testdata", "figures.txt")
	want, _ := os.ReadFile(path) // a missing file differs from any output
	if got.String() != string(want) {
		t.Errorf("figure tables differ from %s, which is now:\n%s", path, got.String())
	}
}
