package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"scout"
)

func TestParseFault(t *testing.T) {
	tests := []struct {
		in       string
		wantRef  scout.ObjectRef
		wantFrac float64
		wantErr  bool
	}{
		{"filter:5003@1.0", scout.FilterRef(5003), 1.0, false},
		{"epg:1004@0.4", scout.EPGRef(1004), 0.4, false},
		{"vrf:101", scout.VRFRef(101), 1.0, false}, // fraction defaults to 1
		{"contract:3000@0.25", scout.ContractRef(3000), 0.25, false},
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
		ref, frac, err := parseFault(tt.in)
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
		if ref != tt.wantRef || frac != tt.wantFrac {
			t.Errorf("parseFault(%q) = %v@%v, want %v@%v", tt.in, ref, frac, tt.wantRef, tt.wantFrac)
		}
	}
}

// FuzzParseFault: the -fault grammar never panics, and a spec it accepts
// has a fraction InjectObjectFault accepts and a ref that survives its own
// rendering. The seeds are well-formed specs, a bare ref, and fractions a
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
		ref, fraction, err := parseFault(spec)
		if err != nil {
			return
		}
		if !(fraction > 0 && fraction <= 1) {
			t.Fatalf("parseFault(%q) accepted fraction %v", spec, fraction)
		}
		back, err := scout.ParseObjectRef(ref.String())
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
// lines that narrate the run — the policy, each fault, a disconnect, the
// warm state, the -watch rounds — are on stderr. A one-shot, a
// -state-dir run, a -watch run and a -scenario replay.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	for _, c := range []struct {
		args  []string
		prose []string
	}{
		{[]string{"-spec", "testbed", "-fault", "filter:5002@1.0", "-disconnect", "3"},
			[]string{"policy ", "injected filter:5002", "disconnected switch 3"}},
		{[]string{"-spec", "small", "-fault", "filter:5002@1.0", "-state-dir", t.TempDir()},
			[]string{"policy ", "injected filter:5002", "warm state: "}},
		{[]string{"-spec", "testbed", "-watch", "-fault", "filter:5002@1.0", "-state-dir", t.TempDir()},
			[]string{"policy ", "baseline: full collection", "injected filter:5002", "batch 1: "}},
		{[]string{"-spec", "testbed", "-scenario", filepath.Join("testdata", "testbed-scenario.json")},
			[]string{"policy ", "scenario "}},
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

// TestRunWatch drives the event-driven daemon loop: a full baseline
// round, then the fault's events wait out the window and the shutdown
// round re-checks only the switches the fault wrote; its report is a cold
// analysis's.
func TestRunWatch(t *testing.T) {
	f, epgID, n := watchFabric(t)
	var out bytes.Buffer
	opts := watchOptions{analyzer: scout.AnalyzerOptions{Workers: 2}, window: 2 * time.Second}
	report, err := runWatch(f, []objectFault{{ref: scout.EPGRef(epgID), fraction: 1.0}}, opts, &out)
	if err != nil {
		t.Fatalf("runWatch: %v\noutput:\n%s", err, out.String())
	}
	if report == nil || report.Consistent {
		t.Fatalf("final watch report must flag the fault; output:\n%s", out.String())
	}
	equalsCold(t, f, opts, report)
	for _, want := range []string{
		fmt.Sprintf("baseline: full collection: re-checked %d/%d", n, n),
		"injected epg:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "event queue") {
		t.Errorf("the loop has no queue to summarize:\n%s", out.String())
	}
	// The round re-checks exactly the switches the fault wrote and replays
	// the one it left alone.
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^batch 1: 5 events \(waited 0s\): re-checked 5/%d switches \(1 replayed\), `, n)).MatchString(out.String()) {
		t.Errorf("output missing the fault's round:\n%s", out.String())
	}
	// The verbose dump of the final report times SCOUT's two stages and
	// counts nothing of the check, which keeps no BDD state to count.
	verbose := capture(t, &os.Stdout, func() error { return emitReport(report, false, true) })
	if line := `localization stages: hit-ratio-1 \S+, change-log \S+$`; !regexp.MustCompile(`(?m)^` + line).MatchString(verbose) {
		t.Errorf("verbose report missing a line matching %q:\n%s", line, verbose)
	}
	if strings.Contains(verbose, "bdd") {
		t.Errorf("verbose report counts BDD work:\n%s", verbose)
	}
}

// watchFabric deploys the testbed at seed 1 and returns it with its lowest
// EPG, whose rules live on a strict subset of the switches (unlike a
// filter fault, which touches everything), and the switch count.
func watchFabric(t *testing.T) (*scout.Fabric, scout.ObjectID, int) {
	t.Helper()
	pol, topo, err := loadPolicy("", "testbed", 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	var epgID scout.ObjectID
	for id := range pol.EPGs {
		if epgID == 0 || id < epgID {
			epgID = id
		}
	}
	return f, epgID, topo.NumSwitches()
}

// equalsCold holds a -watch run's last report to a fresh session's
// analysis of the fabric it left, wall-clock fields aside.
func equalsCold(t *testing.T, f *scout.Fabric, opts watchOptions, report *scout.Report) {
	t.Helper()
	sess, err := scout.NewSession(f, opts.analyzer)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(rep *scout.Report) string {
		rep.Elapsed = 0
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if got, want := marshal(report), marshal(cold); got != want {
		t.Errorf("the -watch report differs from a cold analysis\n got %s\nwant %s", got, want)
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

// TestCheckWatchFlags pins the one-shot/daemon flag-combination rules:
// mixing them must fail loudly instead of silently misbehaving.
func TestCheckWatchFlags(t *testing.T) {
	tests := []struct {
		name    string
		watch   bool
		window  time.Duration
		set     []string
		wantErr bool
	}{
		{"watch alone", true, time.Second, nil, false},
		{"watch with fault", true, time.Second, []string{"fault", "v"}, false},
		{"watch with scenario", true, time.Second, []string{"scenario"}, true},
		{"one-shot with scenario", false, time.Second, []string{"scenario"}, false},
		{"scenario with fault", false, time.Second, []string{"scenario", "fault"}, true},
		{"scenario with disconnect", false, time.Second, []string{"scenario", "disconnect"}, true},
		{"scenario with json", false, time.Second, []string{"scenario", "json"}, false},
		{"v with json", false, time.Second, []string{"v", "json"}, true},
		{"watch with v and json", true, time.Second, []string{"v", "json"}, true},
		{"batch-window without watch", false, time.Second, []string{"batch-window"}, true},
		{"watch with batch-window", true, 0, []string{"batch-window"}, false},
		{"negative batch-window", true, -time.Second, []string{"batch-window"}, true},
	}
	for _, tt := range tests {
		set := make(map[string]bool, len(tt.set))
		for _, name := range tt.set {
			set[name] = true
		}
		err := checkWatchFlags(tt.watch, tt.window, set)
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: checkWatchFlags = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

// TestCheckFabricFlags pins the fabric flag rules: no capacity, switch ID
// or worker count is negative, and each that is must fail loudly, naming
// its flag.
func TestCheckFabricFlags(t *testing.T) {
	tests := []struct {
		name    string
		n       int // -tcam, -disconnect or -workers
		set     []string
		wantErr string
	}{
		{"no fabric flags", 0, nil, ""},
		{"negative tcam", -5, []string{"tcam"}, "-tcam"},
		{"negative disconnect", -7, []string{"disconnect"}, "-disconnect"},
		{"disconnect switch 0", 0, []string{"disconnect"}, ""},
		{"negative workers", -3, []string{"workers"}, "-workers"},
		{"serial workers", 1, []string{"workers"}, ""},
	}
	for _, tt := range tests {
		set := make(map[string]bool, len(tt.set))
		for _, name := range tt.set {
			set[name] = true
		}
		capacity, disconnect, workers := 0, -1, 0
		switch {
		case set["tcam"]:
			capacity = tt.n
		case set["disconnect"]:
			disconnect = tt.n
		case set["workers"]:
			workers = tt.n
		}
		err := checkFabricFlags(capacity, disconnect, workers, set)
		if err == nil && tt.wantErr != "" || err != nil && (tt.wantErr == "" || !strings.Contains(err.Error(), tt.wantErr+" ")) {
			t.Errorf("%s: flag check = %v, want an error naming %q", tt.name, err, tt.wantErr)
		}
	}
}
