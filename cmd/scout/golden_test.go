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
	"scout/internal/workload"
)

// goldenCases are TestGolden's small command lines. Every scenario file in
// testdata is one's -scenario, and states its expect block (and one on
// each analyze step), so each run also holds the reports to the answers
// the file states.
var goldenCases = []struct {
	name string
	args []string
}{
	{"testbed", []string{"-spec", "testbed", "-fault", "filter:5002@1.0", "-fault", "epg:1004@0.4"}},
	{"small", []string{"-spec", "small", "-fault", "filter:5002@1.0", "-fault", "epg:1004@0.4"}},
	{"testbed-disconnect", scenarioArgs("testbed-disconnect", "-spec", "testbed")},
	{"testbed-scenario", scenarioArgs("testbed-scenario", "-spec", "testbed")},
	{"uc1-tcam-overflow", scenarioArgs("uc1-tcam-overflow", "-policy", filepath.Join("testdata", "threetier-policy.json"), "-tcam", "16")},
	{"uc2-unresponsive-switch", scenarioArgs("uc2-unresponsive-switch", "-policy", filepath.Join("testdata", "threetier-policy.json"))},
	{"uc3-missing-switch", scenarioArgs("uc3-missing-switch", "-spec", "testbed")},
	{"mixed-faults", scenarioArgs("mixed-faults", "-spec", "small")},
	{"agent-crash", scenarioArgs("agent-crash", "-spec", "testbed")},
	{"agent-crash-heal", scenarioArgs("agent-crash-heal", "-spec", "testbed")},
	{"silent-eviction", scenarioArgs("silent-eviction", "-spec", "testbed")},
	{"forensics-ticket", scenarioArgs("forensics-ticket", "-policy", filepath.Join("testdata", "threetier-policy.json"), "-seed", "4711")},
}

// scenarioArgs replays testdata/<name>.json on the fabric the flags build.
func scenarioArgs(name string, flags ...string) []string {
	return append(flags, "-scenario", filepath.Join("testdata", name+".json"))
}

// TestGolden pins what the command prints and persists over a fixed set
// of command lines. testdata/golden.txt holds one "case sha256" line per
// output: each stdout, each file a -state-dir run leaves (by name), and
// each generated policy. Elapsed times are zeroed, and the wall-clock line
// and a round line's duration dropped, before hashing. The small cases (goldenCases: the testbed and
// small specs, and the -scenario replays of the testdata corpus) also
// check their default text output in full against testdata/<case>.txt, so
// a change there reads as a diff. A mismatch names the case and prints the
// line (or the text) to paste in its place; -short skips the production
// cases.
func TestGolden(t *testing.T) {
	g := readGolden(t)
	for _, c := range goldenCases {
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
	spec := workload.ProductionSpec()
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
	roundElapsed = regexp.MustCompile(`(?m)( missing rules), \S+$`)
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
	out = roundElapsed.ReplaceAllString(out, "$1")
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

// TestCorpusIsPinned: every JSON file in testdata is some golden case's
// -policy or -scenario, and every scenario file states its expect block
// and one on each analyze step, so no corpus file goes unchecked or
// unpinned.
func TestCorpusIsPinned(t *testing.T) {
	flagOf := make(map[string]string)
	for _, c := range goldenCases {
		for i := 1; i < len(c.args); i++ {
			flagOf[c.args[i]] = c.args[i-1]
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata holds no JSON files (%v)", err)
	}
	for _, path := range files {
		switch flagOf[path] {
		case "-policy":
		case "-scenario":
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sc, err := scout.ParseScenario(data); err != nil {
				t.Errorf("%s: %v", path, err)
			} else if sc.Expect == nil {
				t.Errorf("%s states no expect block", path)
			} else {
				for i, st := range sc.Steps {
					if st.Op == "analyze" && st.Expect == nil {
						t.Errorf("%s: analyze step %d states no expect", path, i)
					}
				}
			}
		default:
			t.Errorf("%s is no golden case's -policy or -scenario; add a case to goldenCases", path)
		}
	}
}
