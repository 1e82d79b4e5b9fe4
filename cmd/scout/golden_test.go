package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"scout"
)

// TestGolden pins what the command prints and persists over a fixed set
// of command lines. testdata/golden.txt holds one "case sha256" line per
// output: each stdout, each file a -state-dir run leaves (by name), and
// each generated policy. Elapsed times are zeroed and the wall-clock line
// dropped before hashing. The small-spec cases (testbed, small, and the
// -scenario replays of testdata/testbed-disconnect.json and
// testdata/testbed-scenario.json) also check their default text output in
// full against testdata/<case>.txt, so a change there reads as a diff. A
// mismatch names the case and prints the line (or the text) to paste in its
// place; -short skips the production cases.
func TestGolden(t *testing.T) {
	g := readGolden(t)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"testbed", []string{"-spec", "testbed", "-fault", "filter:5002@1.0", "-fault", "epg:1004@0.4"}},
		{"small", []string{"-spec", "small", "-fault", "filter:5002@1.0", "-fault", "epg:1004@0.4"}},
		{"testbed-disconnect", []string{"-spec", "testbed", "-scenario", filepath.Join("testdata", "testbed-disconnect.json")}},
		{"testbed-scenario", []string{"-spec", "testbed", "-scenario", filepath.Join("testdata", "testbed-scenario.json")}},
	} {
		// One line answers for both worker counts: a report does not
		// depend on how many checkers produced it.
		for _, workers := range []string{"1", "2"} {
			args := append([]string{"-workers", workers}, c.args...)
			jsonArgs := append(args, "-json")
			g.check(t, c.name+"/json", cmdline(jsonArgs), runGolden(t, jsonArgs))
			checkText(t, c.name, cmdline(args), runGolden(t, args))
		}
	}

	if testing.Short() {
		t.Log("-short: production cases skipped")
	} else {
		for _, seed := range []int64{1, 7} {
			goldenProduction(t, g, seed)
		}
	}
	for name := range g.want {
		if !g.seen[name] && !(testing.Short() && strings.HasPrefix(name, "production")) {
			t.Errorf("golden.txt line %q matches no case; delete it", name)
		}
	}
}

// goldenProduction checks one production x0.25 policy, as
// `policygen -spec production -scale 0.25 -seed N` writes it, under a
// fault mix without -state-dir, with it cold, and restarted on the
// directory the cold run wrote.
func goldenProduction(t *testing.T, g *golden, seed int64) {
	spec := scout.ProductionWorkloadSpec()
	for _, n := range []*int{&spec.EPGs, &spec.Contracts, &spec.Filters, &spec.TargetPairs, &spec.Switches} {
		*n = max(*n/4, 2)
	}
	pol, _, err := scout.GenerateWorkload(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(pol, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("production-%d/", seed)
	g.check(t, prefix+"policy.json", fmt.Sprintf("policygen -spec production -scale 0.25 -seed %d", seed), data)

	args := []string{"-policy", path, "-workers", "2", "-tcam", "131072", "-json",
		"-fault", "filter:5003@1.0", "-fault", "filter:5020@0.5",
		"-fault", "contract:3005@1.0", "-fault", "contract:3048@0.5"}
	g.check(t, prefix+"tcam", cmdline(args), runGolden(t, args))
	dir := t.TempDir()
	stateArgs := append(args, "-state-dir", dir)
	for _, run := range []string{"-cold", "-restart"} {
		name := prefix + "tcam" + run
		g.check(t, name, cmdline(stateArgs), runGolden(t, stateArgs))
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range files {
			data, err := os.ReadFile(filepath.Join(dir, fi.Name()))
			if err != nil {
				t.Fatal(err)
			}
			g.check(t, name+"/"+fi.Name(), cmdline(stateArgs), data)
		}
	}
}

var (
	elapsedField = regexp.MustCompile(`("Elapsed"|"elapsedMillis"): \d+`)
	wallClock    = regexp.MustCompile(`\nanalysis wall-clock: .*\n`)
)

func cmdline(args []string) string { return "scout " + strings.Join(args, " ") }

// runGolden runs the command in-process and returns its stdout with the
// run's timings taken out.
func runGolden(t *testing.T, args []string) []byte {
	t.Helper()
	out, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%s: %v", cmdline(args), err)
	}
	out = elapsedField.ReplaceAllString(out, "$1: 0")
	return []byte(wallClock.ReplaceAllString(out, ""))
}

// golden is testdata/golden.txt: the sha256 each case must hash to, and
// which cases the run has checked.
type golden struct {
	want map[string]string
	seen map[string]bool
}

func readGolden(t *testing.T) *golden {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	g := &golden{want: make(map[string]string), seen: make(map[string]bool)}
	for _, line := range strings.Split(string(data), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if line == "" {
			continue
		} else if !ok {
			t.Fatalf("golden.txt: malformed line %q", line)
		}
		g.want[name] = sum
	}
	return g
}

// check compares data's sha256 with the case's golden line; from is the
// command line that produced data.
func (g *golden) check(t *testing.T, name, from string, data []byte) {
	t.Helper()
	g.seen[name] = true
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != g.want[name] {
		t.Errorf("%s differs (%s); its golden.txt line is now:\n%s %s", name, from, name, sum)
	}
}

// checkText compares a text output with testdata/<name>.txt, naming the
// first line that differs and printing the whole new text.
func checkText(t *testing.T, name, from string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".txt")
	want, _ := os.ReadFile(path) // a missing file differs from any output
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return fmt.Sprintf("%q", ls[i])
		}
		return "end of text"
	}
	t.Errorf("%s differs (%s) at line %d:\n  want %s\n   got %s\n%s is now:\n%s",
		path, from, i+1, line(wl), line(gl), path, got)
}
