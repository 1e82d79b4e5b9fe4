package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"scout"
	"scout/internal/object"
)

func TestParseFault(t *testing.T) {
	tests := []struct {
		in       string
		wantRef  scout.ObjectRef
		wantFrac float64
		wantErr  bool
	}{
		{"filter:5003@1.0", scout.FilterRef(5003), 1.0, false},
		{"epg:1004@0.4", object.EPG(1004), 0.4, false},
		{"vrf:101", object.VRF(101), 1.0, false}, // fraction defaults to 1
		{"contract:3000@0.25", object.Contract(3000), 0.25, false},
		{"bogus:1@1.0", scout.ObjectRef{}, 0, true},
		{"filter:abc@1.0", scout.ObjectRef{}, 0, true},
		{"filter:1@xyz", scout.ObjectRef{}, 0, true},
		{"", scout.ObjectRef{}, 0, true},
		// A fraction outside (0,1] is refused here, so the error names the
		// flag; NaN fails both halves of a `<= 0 || > 1` test.
		{"filter:5002@NaN", scout.ObjectRef{}, 0, true},
		{"filter:5002@Inf", scout.ObjectRef{}, 0, true},
		{"filter:5002@1e309", scout.ObjectRef{}, 0, true},
		{"filter:5002@0", scout.ObjectRef{}, 0, true},
		{"filter:5002@-0.5", scout.ObjectRef{}, 0, true},
		{"filter:5002@1.5", scout.ObjectRef{}, 0, true},
		{"filter:5002@", scout.ObjectRef{}, 0, true},
		{"filter:@1", scout.ObjectRef{}, 0, true},
	}
	for _, tt := range tests {
		st, err := parseFault(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseFault(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			if !strings.Contains(err.Error(), "-fault") {
				t.Errorf("parseFault(%q) error %q does not name the flag", tt.in, err)
			}
			continue
		}
		if ref, err := object.ParseRef(st.Object); st.Op != "inject" || err != nil || ref != tt.wantRef || *st.Fraction != tt.wantFrac {
			t.Errorf("parseFault(%q) = %s %s@%v, want inject %v@%v", tt.in, st.Op, st.Object, *st.Fraction, tt.wantRef, tt.wantFrac)
		}
	}
}

// FuzzParseFault: the -fault grammar never panics, and the inject step of
// a spec it accepts has a fraction InjectObjectFault accepts and a ref that
// survives its own rendering. The seeds are well-formed specs, a bare ref, and fractions a
// `<= 0 || > 1` test lets through or ParseFloat refuses.
func FuzzParseFault(f *testing.F) {
	for _, seed := range []string{
		"filter:5003@1.0", "epg:1004@0.4", "filter:5002", "vrf:101@1",
		"filter:5002@NaN", "filter:5002@Inf", "filter:5002@-Inf", "filter:5002@1e309",
		"filter:5002@", "filter:@1", "@", "@1", ":", "filter:5002@0x1p-2", "switch:4294967296@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		st, err := parseFault(spec)
		if err != nil {
			return
		}
		if frac := *st.Fraction; !(frac > 0 && frac <= 1) {
			t.Fatalf("parseFault(%q) accepted fraction %v", spec, frac)
		}
		ref, err := object.ParseRef(st.Object)
		if err != nil {
			t.Fatalf("parseFault(%q) accepted object %q: %v", spec, st.Object, err)
		}
		back, err := object.ParseRef(ref.String())
		if err != nil || back != ref {
			t.Fatalf("parseFault(%q) = %v, which re-parses to %v (%v)", spec, ref, back, err)
		}
	})
}

// runCLI runs the command's run() under the given arguments on a fresh
// flag set and returns what it printed on stdout and on stderr, and its
// error.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"scout"}, args...)
	flag.CommandLine = flag.NewFlagSet("scout", flag.ContinueOnError)
	stderr = capture(t, &os.Stderr, func() error {
		stdout = capture(t, &os.Stdout, func() error { err = run(); return nil })
		return nil
	})
	return stdout, stderr, err
}

// TestRunRejectsNaNFault: a NaN fraction passes `<= 0 || > 1`, and used to
// remove every rule of the object; the CLI refuses it before touching the
// fabric, naming the flag.
func TestRunRejectsNaNFault(t *testing.T) {
	out, _, err := runCLI(t, "-spec", "testbed", "-fault", "filter:5002@NaN")
	if err == nil || !strings.Contains(err.Error(), "-fault") {
		t.Fatalf("run with a NaN fault fraction: err = %v, want one naming -fault", err)
	}
	if strings.Contains(out, "injected") {
		t.Errorf("a refused fault was injected:\n%s", out)
	}
}

// TestErrorLineNamesTheCommandOnce: a scenario that never deploys fails
// with package scout's "nothing to analyze" error, and a refused flag with
// the command's own; main prints each behind one "scout: " prefix.
func TestErrorLineNamesTheCommandOnce(t *testing.T) {
	undeployed := filepath.Join(t.TempDir(), "undeployed.json")
	if err := os.WriteFile(undeployed, []byte(`{"name": "never deployed", "steps": [{"op": "disconnect", "switch": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "testbed", "-scenario", undeployed}, "scout: nothing to analyze: "},
		{[]string{"-spec", "testbed", "-fault", "filter:5002@NaN"}, "scout: -fault "},
	} {
		_, _, err := runCLI(t, tc.args...)
		if err == nil {
			t.Fatalf("%s succeeded, want an error", cmdline(tc.args))
		}
		if line := errorLine(err); !strings.HasPrefix(line, tc.want) {
			t.Errorf("%s: main prints %q, want it to start %q", cmdline(tc.args), line, tc.want)
		}
	}
}

// TestRunRestartReportsReplays: a run over a warm-state directory,
// restarted on the unchanged fabric, replays every switch's verdict and
// says so: the cold run builds the base, and the restart loads it.
func TestRunRestartReportsReplays(t *testing.T) {
	_, topo, err := loadPolicy("", "small", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumSwitches()
	args := []string{"-spec", "small", "-workers", "2", "-state-dir", t.TempDir(), "-fault", "filter:5002@1.0"}
	for _, tc := range []struct{ name, want string }{
		{"cold", fmt.Sprintf("base loaded 0 / rebuilt 1, switches replayed 0 / checked %d\n", n)},
		{"restart", fmt.Sprintf("base loaded 1 / rebuilt 0, switches replayed %d / checked 0\n", n)},
	} {
		out, _, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("%s run: %v\n%s", tc.name, err, out)
		}
		if !strings.Contains(out, "warm state: "+tc.want) {
			t.Errorf("%s run: warm state line does not say %q:\n%s", tc.name, tc.want, out)
		}
		if !strings.Contains(out, "network state INCONSISTENT") {
			t.Errorf("%s run lost the fault:\n%s", tc.name, out)
		}
	}
}

// TestRunWatchReplaysScenarioFirst: under -watch a scenario replays before
// the baseline round, which reports the two rules its disconnect withheld,
// and -fault injects after that round.
func TestRunWatchReplaysScenarioFirst(t *testing.T) {
	args := []string{"-spec", "testbed", "-watch", "-scenario", filepath.Join("testdata", "testbed-disconnect.json"), "-fault", "filter:5002@1.0"}
	out, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cmdline(args), err, out)
	}
	scenario, baseline, injected := strings.Index(out, `scenario "`), strings.Index(out, "baseline: "), strings.Index(out, "injected filter:5002")
	if scenario < 0 || baseline < scenario || injected < baseline {
		t.Errorf("%s: want the scenario line, then the baseline, then the fault:\n%s", cmdline(args), out)
	}
	if !regexp.MustCompile(`(?m)^baseline: full collection: re-checked \d+/\d+ switches \(0 replayed\), 2 missing rules, `).MatchString(out) {
		t.Errorf("%s: the baseline does not report the disconnect's 2 missing rules:\n%s", cmdline(args), out)
	}
}

// TestRunChecksScenarioExpect: a scenario whose expect block is not the
// report's answer fails the run, and its verdict line names what the
// report gave and what the file wants; a -fault beside the scenario adds
// faults the file does not state, so the run says it checked nothing and
// succeeds, one-shot and under -watch alike.
func TestRunChecksScenarioExpect(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "testbed-disconnect.json"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(t.TempDir(), "wrong.json")
	if err := os.WriteFile(wrong, []byte(strings.Replace(string(data), `"filter:64999"`, `"filter:5002"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", "testbed", "-scenario", wrong}
	out, _, err := runCLI(t, args...)
	if err == nil || !strings.Contains(err.Error(), "expect") {
		t.Errorf("%s: err = %v, want the expect mismatch", cmdline(args), err)
	}
	if want := "expect: mismatch: got hypothesis [contract:3000 filter:64999], causes [unresponsive-switch@switch:3]; " +
		"want hypothesis [contract:3000 filter:5002], causes [unresponsive-switch@switch:3]\n"; !strings.HasSuffix(out, want) {
		t.Errorf("%s: output does not end with %q:\n%s", cmdline(args), want, out)
	}

	for _, extra := range [][]string{{"-fault", "filter:5002@1.0"}, {"-fault", "filter:5002@1.0", "-watch"}} {
		args := append([]string{"-spec", "testbed", "-scenario", wrong}, extra...)
		out, _, err := runCLI(t, args...)
		if want := "expect: not checked (-fault adds faults the scenario does not state)\n"; err != nil || !strings.HasSuffix(out, want) {
			t.Errorf("%s: err = %v, want none and output ending with %q:\n%s", cmdline(args), err, want, out)
		}
	}
}

// TestRunWatchReportsFailedSave: a -watch -state-dir run whose base file
// cannot be written (a directory squats on its name) exits with that
// write's error once its session closes.
func TestRunWatchReportsFailedSave(t *testing.T) {
	args := []string{"-spec", "testbed", "-watch", "-fault", "filter:5002@1.0", "-state-dir"}
	prime := t.TempDir()
	if out, _, err := runCLI(t, append(args, prime)...); err != nil {
		t.Fatalf("priming run: %v\n%s", err, out)
	}
	bases, err := filepath.Glob(filepath.Join(prime, "base-*"))
	if err != nil || len(bases) != 1 {
		t.Fatalf("priming run left bases %v (%v), want one", bases, err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, filepath.Base(bases[0])), 0o755); err != nil {
		t.Fatal(err)
	}
	if out, _, err := runCLI(t, append(args, dir)...); err == nil || !strings.Contains(err.Error(), "base-") {
		t.Fatalf("run over a blocked base file: err = %v, want the failed base write\n%s", err, out)
	}
}

// TestJSONStdoutIsOneDocument: under -json, stdout is the report as one
// JSON value and nothing after it, so `scout -json | jq` reads it; the
// lines that narrate the run — the policy, a scenario, each fault, the
// warm state, the -watch rounds, the scenario's expect verdict — are on
// stderr. A scenario replay with a fault on top, a -state-dir run, a
// -watch run and a scenario alone.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	for _, c := range []struct {
		args  []string
		prose []string
	}{
		{[]string{"-spec", "testbed", "-scenario", filepath.Join("testdata", "testbed-disconnect.json"), "-fault", "filter:5002@1.0"},
			[]string{"policy ", `scenario "switch 3 unresponsive`, "injected filter:5002", "expect: not checked"}},
		{[]string{"-spec", "small", "-fault", "filter:5002@1.0", "-state-dir", t.TempDir()},
			[]string{"policy ", "injected filter:5002", "warm state: "}},
		{[]string{"-spec", "testbed", "-watch", "-fault", "filter:5002@1.0", "-state-dir", t.TempDir()},
			[]string{"policy ", "baseline: full collection", "injected filter:5002", "batch 1: "}},
		{[]string{"-spec", "testbed", "-scenario", filepath.Join("testdata", "testbed-scenario.json")},
			[]string{"policy ", "scenario ", "expect: ok"}},
	} {
		args := append(c.args, "-json")
		stdout, stderr, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", cmdline(args), err)
		}
		dec := json.NewDecoder(strings.NewReader(stdout))
		var report struct{ Consistent *bool }
		if err := dec.Decode(&report); err != nil || report.Consistent == nil {
			t.Errorf("%s: stdout does not open with the report (%v):\n%s", cmdline(args), err, stdout)
		} else if _, err := dec.Token(); err != io.EOF {
			t.Errorf("%s: stdout goes on after the report (%v):\n%s", cmdline(args), err, stdout)
		}
		for _, line := range c.prose {
			if !strings.Contains(stderr, line) {
				t.Errorf("%s: stderr lacks %q:\n%s", cmdline(args), line, stderr)
			}
		}
	}
}

func TestLoadPolicyGenerates(t *testing.T) {
	pol, topo, err := loadPolicy("", "testbed", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Stats().EPGs == 0 || topo.NumSwitches() == 0 {
		t.Error("generated policy empty")
	}
	if _, _, err := loadPolicy("", "nope", 1); err == nil || !strings.Contains(err.Error(), "production, testbed, or small") {
		t.Errorf("unknown spec: %v, want an error naming every spec", err)
	}
	if _, _, err := loadPolicy("/nonexistent/file.json", "", 1); err == nil {
		t.Error("missing file must fail")
	}
}

func TestLoadPolicyFromFile(t *testing.T) {
	pol, _, err := loadPolicy("", "testbed", 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/policy.json"
	data, err := json.Marshal(pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, topo, err := loadPolicy(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != pol.Stats() {
		t.Errorf("round trip stats: %+v vs %+v", loaded.Stats(), pol.Stats())
	}
	if topo.NumSwitches() == 0 {
		t.Error("topology not derived")
	}
}

func TestLoadPolicySmallSpec(t *testing.T) {
	pol, topo, err := loadPolicy("", "small", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Stats().EPGs == 0 || topo.NumSwitches() == 0 {
		t.Error("generated small-fabric policy empty")
	}
}

// TestRunWatch drives -watch: a full baseline round, then one round per
// -fault that removed rules, which re-checks only the switches the fault
// wrote; the last round's report is the one-shot report of the same flags,
// with one fault and with two. A fault that removes nothing runs no round.
func TestRunWatch(t *testing.T) {
	pol, topo, err := loadPolicy("", "testbed", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The lowest EPGs' rules live on a strict subset of the switches
	// (unlike a filter fault, which touches everything).
	var epgs []scout.ObjectID
	for id := range pol.EPGs {
		epgs = append(epgs, id)
	}
	slices.Sort(epgs)
	n := topo.NumSwitches()
	first, second := fmt.Sprintf("epg:%d@1.0", epgs[0]), fmt.Sprintf("epg:%d@1.0", epgs[1])

	args := []string{"-spec", "testbed", "-workers", "2", "-watch", "-v", "-fault", first}
	out, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cmdline(args), err, out)
	}
	for _, want := range []string{
		fmt.Sprintf("baseline: full collection: re-checked %d/%d", n, n),
		"injected epg:",
		"network state INCONSISTENT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("%s: output missing %q:\n%s", cmdline(args), want, out)
		}
	}
	if strings.Contains(out, "event queue") {
		t.Errorf("%s: the loop has no queue to summarize:\n%s", cmdline(args), out)
	}
	// The round re-checks exactly the switches the fault wrote and replays
	// the one it left alone.
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^batch 1: 5 events \(waited 0s\): re-checked 5/%d switches \(1 replayed\), `, n)).MatchString(out) {
		t.Errorf("%s: output missing the fault's round:\n%s", cmdline(args), out)
	}
	// The verbose dump of the final report times the run's stages and
	// SCOUT's two, and counts nothing of the check, which keeps no BDD
	// state to count.
	for _, line := range []string{`stages: collect \S+, model \S+, witness \S+, check \S+, localize \S+, correlate \S+, store \S+$`,
		`localization stages: hit-ratio-1 \S+, change-log \S+$`} {
		if !regexp.MustCompile(`(?m)^` + line).MatchString(out) {
			t.Errorf("%s: verbose report missing a line matching %q:\n%s", cmdline(args), line, out)
		}
	}
	if strings.Contains(out, "bdd") {
		t.Errorf("%s: verbose report counts BDD work:\n%s", cmdline(args), out)
	}

	for _, faults := range [][]string{{first}, {first, second}} {
		oneShot := []string{"-spec", "testbed", "-workers", "2", "-json"}
		for _, flt := range faults {
			oneShot = append(oneShot, "-fault", flt)
		}
		watch := append(slices.Clone(oneShot), "-watch")
		want, _, err := runCLI(t, oneShot...)
		if err != nil {
			t.Fatalf("%s: %v", cmdline(oneShot), err)
		}
		got, rounds, err := runCLI(t, watch...)
		if err != nil {
			t.Fatalf("%s: %v", cmdline(watch), err)
		}
		if got, want := elapsedField.ReplaceAllString(got, "$1: 0"), elapsedField.ReplaceAllString(want, "$1: 0"); got != want {
			t.Errorf("%s: the report differs from the one-shot's\n got %s\nwant %s", cmdline(watch), got, want)
		}
		if batches := regexp.MustCompile(`(?m)^batch \d+: `).FindAllString(rounds, -1); len(batches) != len(faults) {
			t.Errorf("%s: %d batch rounds, want one per fault:\n%s", cmdline(watch), len(batches), rounds)
		}
	}

	args = []string{"-spec", "testbed", "-watch", "-fault", "filter:9999@1.0"}
	out, _, err = runCLI(t, args...)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cmdline(args), err, out)
	}
	if !strings.Contains(out, "injected filter:9999 @1.00: 0 rules removed\n") || strings.Contains(out, "batch ") {
		t.Errorf("%s: want a fault that removed nothing and no round after it:\n%s", cmdline(args), out)
	}
}

// capture runs fn with *stream (os.Stdout or os.Stderr) redirected to a
// file and returns what fn printed there (the command writes to the
// process's own streams).
func capture(t *testing.T, stream **os.File, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	saved := *stream
	*stream = f
	err = fn()
	*stream = saved
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCheckWatchFlags pins the flag-combination rules of either mode:
// mixing flags that contradict each other must fail loudly instead of
// silently misbehaving.
func TestCheckWatchFlags(t *testing.T) {
	tests := []struct {
		name    string
		set     []string
		wantErr bool
	}{
		{"watch alone", []string{"watch"}, false},
		{"watch with fault", []string{"watch", "fault", "v"}, false},
		{"watch with scenario", []string{"watch", "scenario", "fault"}, false},
		{"one-shot with scenario", []string{"scenario"}, false},
		{"scenario with fault", []string{"scenario", "fault"}, false},
		{"scenario with json", []string{"scenario", "json"}, false},
		{"v with json", []string{"v", "json"}, true},
		{"watch with v and json", []string{"watch", "v", "json"}, true},
	}
	for _, tt := range tests {
		set := make(map[string]bool, len(tt.set))
		for _, name := range tt.set {
			set[name] = true
		}
		err := checkFlags(set, 0, 0)
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: checkFlags = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

// TestCheckFabricFlags pins the fabric flag rules: no capacity or worker
// count is negative, and each that is must fail loudly, naming its flag.
func TestCheckFabricFlags(t *testing.T) {
	tests := []struct {
		name     string
		capacity int // -tcam
		workers  int
		wantErr  string
	}{
		{"no fabric flags", 0, 0, ""},
		{"negative tcam", -5, 0, "-tcam"},
		{"negative workers", 0, -3, "-workers"},
		{"serial workers", 0, 1, ""},
	}
	for _, tt := range tests {
		err := checkFlags(nil, tt.capacity, tt.workers)
		if err == nil && tt.wantErr != "" || err != nil && (tt.wantErr == "" || !strings.Contains(err.Error(), tt.wantErr+" ")) {
			t.Errorf("%s: flag check = %v, want an error naming %q", tt.name, err, tt.wantErr)
		}
	}
}
