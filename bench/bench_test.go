package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scout/internal/workload"
)

const specFile = "../BENCHMARK.json"

// testSpec is SmallFabricSpec cut down until every workload, in both
// modes, fits in a few seconds of `go test ./...`: the full small fabric
// takes 0.4 s per cold analysis, and the ten runs below make forty. It is
// about the smallest cut on which the fault bands still hold a separable
// draw and every switch eviction windows that cannot complete an object's
// failure: fewer pairs on fewer switches, spread over more objects with
// one entry a filter.
func testSpec() workload.Spec {
	s := workload.SmallFabricSpec()
	s.Switches, s.EPGs, s.Contracts, s.Filters, s.TargetPairs = 3, 48, 80, 40, 350
	s.EntriesPerFilterMax = 1
	return s
}

func smallParams(t *testing.T) params {
	return params{spec: testSpec(), workers: benchProcs, setupReps: 1, stateDir: t.TempDir()}
}

// TestWorkloadsSmall runs every workload, untraced and traced, for two
// ops on the small fabric with every output check on, and holds the
// metrics each mode reports against BENCHMARK.json's lists.
func TestWorkloadsSmall(t *testing.T) {
	spec, err := loadBenchmarkSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness runs %q", i, spec.Workloads[i].Name, name)
		}
		for _, traced := range []bool{false, true} {
			rec, err := measure(name, smallParams(t), opCount{ops: 2, warmup: 1}, 7, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			listed := spec.EndToEnd
			if traced {
				listed = spec.PerLayer
			}
			if _, err := contractLine(rec, listed); err != nil {
				t.Error(err)
			}
			if traced && len(rec.Metrics) != len(listed) {
				t.Errorf("%s traced reports %d metrics, BENCHMARK.json lists %d per layer", name, len(rec.Metrics), len(listed))
			}
			for _, ms := range listed {
				if m, ok := rec.Metrics[ms.Name]; ok && m.Unit != ms.Unit {
					t.Errorf("%s: %s is reported in %q, BENCHMARK.json says %q", name, ms.Name, m.Unit, ms.Unit)
				}
			}
			if !traced {
				if r := rec.Metrics["hypothesis_recall"].Value; r != 1 {
					t.Errorf("%s: recall %v on the injected faults, want 1", name, r)
				}
			}
		}
	}
}

// TestSeedDeterminism: one seed, one input; another seed, another input.
func TestSeedDeterminism(t *testing.T) {
	build := func(seed int64) *env {
		e, err := buildEnv(testSpec(), seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b, c := build(7), build(7), build(8)
	if a.digest != b.digest {
		t.Errorf("seed 7 gave digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.digest)
	}
	aj, _ := json.Marshal(a.windows)
	bj, _ := json.Marshal(b.windows)
	cj, _ := json.Marshal(c.windows)
	if string(aj) != string(bj) {
		t.Error("seed 7 scheduled two different mutation schedules")
	}
	if string(aj) == string(cj) {
		t.Error("seeds 7 and 8 scheduled the same mutations")
	}
	if a.stormStart != b.stormStart || len(a.faults) != len(faultSlots) {
		t.Errorf("storm start %d vs %d, %d faults", a.stormStart, b.stormStart, len(a.faults))
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 100}
	for _, tc := range []struct {
		p, want float64
	}{{50, 3}, {90, 100}, {99, 100}, {100, 100}, {1, 1}, {34, 3}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := mean(xs); math.Abs(got-115.0/6) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, 115.0/6)
	}
	if got := maxOf(xs); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := countOver(xs, 5*3.5); got != 1 {
		t.Errorf("stalls over 5x the median = %d, want 1", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must summarise to 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

// writeRuns writes a result file of three untraced cold-oneshot runs that
// report every end-to-end metric of spec at 100 (1 for a ratio), except
// the named one, whose runs read the given values.
func writeRuns(t *testing.T, spec *benchmarkSpec, dir, file, digest, name string, vals ...float64) string {
	t.Helper()
	out := resultFile{Schema: 1}
	for i, v := range vals {
		rec := runRecord{Workload: "cold-oneshot", Seed: int64(i), Ops: 6, Warmup: 1, InputDigest: digest,
			Correct: true, Attempted: 6, Metrics: metrics{}}
		for _, ms := range spec.EndToEnd {
			base := 100.0
			if ms.Unit == "ratio" {
				base = 1
			}
			rec.Metrics.set(ms.Name, base, ms.Unit, 6)
		}
		if name != "" {
			rec.Metrics.set(name, v, "", 6)
		}
		out.Runs = append(out.Runs, rec)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompare holds -compare's verdicts against the shipped
// BENCHMARK.json. The issue's cases (a 15% regression flagged, a 5% one
// passed) assumed a 10% bound; no shipped metric has one, so every shipped
// end-to-end metric is tried at 1.5 and 0.5 times its own bound.
func TestCompare(t *testing.T) {
	spec, err := loadBenchmarkSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	compare := func(oldFile, newFile string) (bool, string, error) {
		var out strings.Builder
		regressed, err := compareFiles(oldFile, newFile, specFile, &out)
		return regressed, out.String(), err
	}
	verdictOf := func(out, metric string) string {
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "no line for " + metric
	}

	for _, ms := range spec.EndToEnd {
		base, dir100 := 100.0, 1.0 // dir100: the direction that is worse
		if ms.Unit == "ratio" {
			base = 1
		}
		if ms.Better == "higher" {
			dir100 = -1
		}
		at := func(share float64) []float64 { // three runs, the median worse by share
			v := base * (1 + dir100*share)
			return []float64{v, v * (1 + ms.Bound/100), v * (1 - ms.Bound/100)}
		}
		old := writeRuns(t, spec, dir, "old.json", "d", ms.Name, at(0)...)
		for _, tc := range []struct {
			file      string
			share     float64
			regressed bool
			verdict   string
		}{
			{"half.json", 0.5 * ms.Bound, false, "unchanged"},
			{"over.json", 1.5 * ms.Bound, true, "REGRESSED"},
			{"gain.json", -1.5 * ms.Bound, false, "improved"},
		} {
			regressed, out, err := compare(old, writeRuns(t, spec, dir, tc.file, "d", ms.Name, at(tc.share)...))
			if err != nil {
				t.Fatalf("%s %s: %v", ms.Name, tc.file, err)
			}
			if got := verdictOf(out, ms.Name); regressed != tc.regressed || got != tc.verdict {
				t.Errorf("%s worse by %g: regressed=%v verdict %s, want %v %s\n%s",
					ms.Name, tc.share, regressed, got, tc.regressed, tc.verdict, out)
			}
		}
	}

	// Where the runs of a side are further apart than the bound, the
	// medians decide nothing: unresolved, unless the runs do not overlap.
	old := writeRuns(t, spec, dir, "old.json", "d", "setup_s", 70, 100, 140)
	for _, tc := range []struct {
		file      string
		vals      []float64
		regressed bool
		verdict   string
	}{
		{"noisy.json", []float64{80, 110, 150}, false, "unresolved"},
		{"apart.json", []float64{180, 200, 260}, true, "REGRESSED"},
		{"below.json", []float64{40, 50, 60}, false, "improved"},
	} {
		regressed, out, err := compare(old, writeRuns(t, spec, dir, tc.file, "d", "setup_s", tc.vals...))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := verdictOf(out, "setup_s"); regressed != tc.regressed || got != tc.verdict {
			t.Errorf("%s: regressed=%v verdict %s, want %v %s\n%s", tc.file, regressed, got, tc.regressed, tc.verdict, out)
		}
	}

	// Failed ops regress a file whose metrics all read the same.
	same := writeRuns(t, spec, dir, "same.json", "d", "", 0, 0, 0)
	rewrite := func(from, to, find, replace string) string {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), find) {
			t.Fatalf("%s does not contain %s", from, find)
		}
		path := filepath.Join(dir, to)
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), find, replace, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	failing := rewrite(same, "failing.json", `"correct":true,"attempted":6,"failed":0`, `"correct":false,"attempted":6,"failed":2`)
	if regressed, out, err := compare(same, failing); err != nil || !regressed {
		t.Errorf("a new file with failed ops: regressed=%v err=%v\n%s", regressed, err, out)
	}
	if regressed, out, err := compare(failing, failing); err != nil || !regressed {
		t.Errorf("an incorrect run that the old file had too: regressed=%v err=%v\n%s", regressed, err, out)
	}

	// Files that did not measure the same thing are refused.
	for name, other := range map[string]string{
		"another input digest": writeRuns(t, spec, dir, "digest.json", "e", "", 0, 0, 0),
		"another seed count":   writeRuns(t, spec, dir, "seeds.json", "d", "", 0, 0),
		"another op count":     rewrite(same, "ops.json", `"ops":6`, `"ops":5`),
		"a missing metric":     rewrite(same, "metric.json", `"hypothesis_recall"`, `"renamed"`),
		"another workload":     rewrite(same, "workload.json", `"workload":"cold-oneshot"`, `"workload":"restart"`),
	} {
		if _, _, err := compare(same, other); err == nil {
			t.Errorf("%s was compared", name)
		}
		if _, _, err := compare(other, same); err == nil {
			t.Errorf("%s was compared (old and new swapped)", name)
		}
	}
}
