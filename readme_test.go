package scout_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readmeMaxLines bounds README.md: what the system is, by paper stage, its
// API, its state on disk and how it is tested. The history is CHANGES.md's.
const readmeMaxLines = 400

// readmeTables are README.md's generated tables, each regenerated from the
// file it names. They hold every measured number README shows.
var readmeTables = []struct {
	source string
	render func(t *testing.T, source string, data []byte) string
}{
	{"testdata/work.txt", workTable},
	{"cmd/scout-bench/testdata/figures-paper.txt", claimsTable},
	{"bench/baseline/BENCH_11.json", baselineTable},
}

const (
	tableBegin = "<!-- generated by TestReadme from "
	tableEnd   = "<!-- end of generated table -->"
)

// timing is a duration written as a number and a unit. A flag's value in a
// command (-fuzztime=15s) is a setting, not a timing, and the leading group
// lets the check pass it by.
var timing = regexp.MustCompile(`(-[\w-]+[ =])?\b\d+(?:[.,]\d+)? ?(?:ns|µs|us|ms|s|secs?|seconds?|mins?|minutes?|h|hours?)\b`)

// TestReadme holds README.md to what HEAD measures. Its three tables are
// regenerated from testdata/work.txt, the paper-size figure golden and
// the committed benchmark baseline; no timing appears outside them; and it
// stays within readmeMaxLines. A stale table fails with the text to paste in
// its place. CI's README step runs every `go run` line of its shell blocks.
func TestReadme(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) > readmeMaxLines {
		t.Errorf("README.md has %d lines, over %d: move history to CHANGES.md", len(lines), readmeMaxLines)
	}

	tables := make(map[string]string)
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if src, ok := strings.CutPrefix(line, tableBegin); ok {
			src = strings.TrimSuffix(src, " -->")
			end := slices.Index(lines[i:], tableEnd)
			if end < 0 {
				t.Fatalf("README.md:%d: the table from %s has no %q line", i+1, src, tableEnd)
			}
			tables[src] = strings.Join(lines[i+1:i+end], "\n") + "\n"
			i += end
			continue
		}
		for _, m := range timing.FindAllStringSubmatch(line, -1) {
			if m[1] == "" {
				t.Errorf("README.md:%d: timing %q outside the generated tables", i+1, m[0])
			}
		}
	}

	for _, tab := range readmeTables {
		src, err := os.ReadFile(filepath.FromSlash(tab.source))
		if err != nil {
			t.Fatal(err)
		}
		want := tab.render(t, tab.source, src)
		if got := tables[tab.source]; got != want {
			t.Errorf("README.md's table from %s is missing or stale; with its markers it is now:\n%s%s -->\n%s%s",
				tab.source, tableBegin, tab.source, want, tableEnd)
		}
		delete(tables, tab.source)
	}
	for src := range tables {
		t.Errorf("README.md's table from %s has no generator; add it to readmeTables", src)
	}
}

// workTable is op 1 of every journey in testdata/work.txt: the first op
// after the run it starts from.
func workTable(t *testing.T, _ string, data []byte) string {
	cols := []string{"checked", "replayed", "base_builds", "base_loads", "state_bytes", "allocs"}
	var header []string
	var b strings.Builder
	b.WriteString("| journey | " + strings.ReplaceAll(strings.Join(cols, " | "), "_", " ") + " |\n")
	b.WriteString("|---" + strings.Repeat("|--:", len(cols)) + "|\n")
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(line, "#"):
		case header == nil:
			header = f
		case len(f) != len(header):
			t.Fatalf("work.txt: row %q has %d fields, the header %d", line, len(f), len(header))
		case f[1] == "1":
			row := []string{f[0]}
			for _, c := range cols {
				i := slices.Index(header, c)
				if i < 0 {
					t.Fatalf("work.txt has no %s column", c)
				}
				row = append(row, f[i])
			}
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
	}
	return b.String()
}

// figureTable is one table of figures.txt: its column names, each row's
// first field (a fault count, or a bin of suspect-set sizes) and each
// other column's values from the first row down.
type figureTable struct {
	cols []string
	keys []string
	vals map[string][]float64
}

// figureTables parses a figure golden into its tables, by the title
// between the == markers.
func figureTables(t *testing.T, data []byte) map[string]*figureTable {
	tables := make(map[string]*figureTable)
	var title string
	var cur *figureTable
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "== "):
			title, cur = strings.Trim(line, "= "), nil
		case len(f) == 0:
			cur = nil
		case f[0] == "faults" || f[0] == "#suspects":
			cur = &figureTable{cols: f, vals: make(map[string][]float64)}
			tables[title] = cur
		case cur != nil:
			cur.keys = append(cur.keys, f[0])
			for i, c := range cur.cols[1:] {
				v, err := strconv.ParseFloat(f[i+1], 64)
				if err != nil {
					t.Fatalf("figure golden %s: %v", title, err)
				}
				cur.vals[c] = append(cur.vals[c], v)
			}
		}
	}
	return tables
}

// claimsTable sets §VI's claims beside the numbers of the figure golden
// at paper size, every fault count from 1 to 10. A claim is a test on one
// figure's table; the generator computes whether it holds, and where it
// does not.
func claimsTable(t *testing.T, source string, data []byte) string {
	tables := figureTables(t, data)
	get := func(prefix string) *figureTable {
		for title, tab := range tables {
			if strings.HasPrefix(title, prefix) {
				return tab
			}
		}
		t.Fatalf("%s has no table titled %q", source, prefix)
		return nil
	}
	fig8, fig9, fig10, ablation := get("Figure 8:"), get("Figure 9:"), get("Figure 10:"), get("Ablation:")
	var b strings.Builder
	fmt.Fprintf(&b, "| §VI claim | test on %s | reproduced | holds |\n|---|---|---|---|\n", filepath.Base(source))
	row := func(claim, test string, v claimVerdict) {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", claim, test, v.reproduced, v.holds)
	}
	gamma := get("Figure 7(a):").vals["gamma"]
	row("Fig. 7(a): the hypothesis is a small part of the suspect set", "γ < 0.2 in every bin",
		claimVerdict{fmt.Sprintf("γ %s over %d bins", span(gamma), len(gamma)), yesNo(slices.Max(gamma) < 0.2)})
	for _, fig := range []struct {
		name, model string
		tab         *figureTable
	}{{"Fig. 8", "switch", fig8}, {"Fig. 9", "controller", fig9}} {
		row(fmt.Sprintf("%s: on the %s model, SCOUT finds at least what SCORE finds", fig.name, fig.model),
			atLeastTest("SCOUT-R", "SCORE-0.6-R", "SCORE-1-R"), atLeast(fig.tab, "SCOUT-R", "SCORE-0.6-R", "SCORE-1-R"))
		row(fig.name+": … at precision comparable to SCORE-1's", "mean SCOUT-P ≥ mean SCORE-1-P − 0.25",
			meanWithin(fig.tab, "SCOUT-P", "SCORE-1-P", 0.25))
	}
	row("Fig. 10: end to end on the testbed, SCOUT finds at least what SCORE-1 finds",
		atLeastTest("SCOUT-R", "SCORE-1-R"), atLeast(fig10, "SCOUT-R", "SCORE-1-R"))
	row("Fig. 10: … and is at least as precise", atLeastTest("SCOUT-P", "SCORE-1-P"), atLeast(fig10, "SCOUT-P", "SCORE-1-P"))
	row("Ablation: the change-log stage adds recall", atLeastTest("SCOUT-R", "SCOUT-nolog-R"),
		atLeast(ablation, "SCOUT-R", "SCOUT-nolog-R"))
	row("Ablation: … and costs no precision", atLeastTest("SCOUT-P", "SCOUT-nolog-P"),
		atLeast(ablation, "SCOUT-P", "SCOUT-nolog-P"))
	return b.String()
}

// claimVerdict is a claim's reproduced numbers and whether it holds.
type claimVerdict struct{ reproduced, holds string }

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "**no**"
}

func atLeastTest(col string, others ...string) string {
	return fmt.Sprintf("%s ≥ %s at every fault count", col, strings.Join(others, ", "))
}

// atLeast tests col ≥ every other column at each fault count. Where it
// fails, the claimVerdict shows the numbers at those fault counts only.
func atLeast(tab *figureTable, col string, others ...string) claimVerdict {
	var bad []int
	for i, v := range tab.vals[col] {
		for _, o := range others {
			if v < tab.vals[o][i] {
				bad = append(bad, i)
				break
			}
		}
	}
	pick := func(c string) []float64 {
		if len(bad) == 0 {
			return tab.vals[c]
		}
		var out []float64
		for _, i := range bad {
			out = append(out, tab.vals[c][i])
		}
		return out
	}
	var theirs []float64
	for _, o := range others {
		theirs = append(theirs, pick(o)...)
	}
	reproduced := fmt.Sprintf("%s %s vs %s", col, span(pick(col)), span(theirs))
	if len(bad) == 0 {
		return claimVerdict{reproduced, "yes"}
	}
	faults := make([]int, len(bad))
	for j, i := range bad {
		faults[j], _ = strconv.Atoi(tab.keys[i])
	}
	at := "at " + ranges(faults) + " faults"
	return claimVerdict{at + ": " + reproduced, "**no**, " + at}
}

// meanWithin tests mean(col) ≥ mean(other) − tol.
func meanWithin(tab *figureTable, col, other string, tol float64) claimVerdict {
	mean := func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	a, b := mean(tab.vals[col]), mean(tab.vals[other])
	return claimVerdict{fmt.Sprintf("mean %.3f vs %.3f", a, b), yesNo(a >= b-tol)}
}

// span renders the range of vs: "0.611-0.690", or one value.
func span(vs []float64) string {
	lo, hi := slices.Min(vs), slices.Max(vs)
	if lo == hi {
		return fmt.Sprintf("%.3f", lo)
	}
	return fmt.Sprintf("%.3f-%.3f", lo, hi)
}

// ranges renders ascending integers as ranges: "2-4", "1, 3".
func ranges(ns []int) string {
	var parts []string
	for i := 0; i < len(ns); {
		j := i
		for j+1 < len(ns) && ns[j+1] == ns[j]+1 {
			j++
		}
		if j == i {
			parts = append(parts, strconv.Itoa(ns[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", ns[i], ns[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}

// baselineTable is each journey's median setup_s and scout.op_p50_ms over
// the baseline's untraced runs, under a label naming the record: the number
// its file name carries, its commit and its seeds.
func baselineTable(t *testing.T, source string, data []byte) string {
	pr, ok := strings.CutPrefix(strings.TrimSuffix(filepath.Base(source), ".json"), "BENCH_")
	if !ok {
		t.Fatalf("%s: want a BENCH_<pr>.json name", source)
	}
	var rec struct {
		Env struct {
			GoVersion string `json:"go_version"`
			Nproc     int    `json:"nproc"`
			Commit    string `json:"commit"`
		} `json:"env"`
		Runs []struct {
			Workload string `json:"workload"`
			Traced   bool   `json:"traced"`
			Seed     int    `json:"seed"`
			Metrics  map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	var journeys []string
	setup, op := make(map[string][]float64), make(map[string][]float64)
	seeds := make(map[int]bool)
	for _, r := range rec.Runs {
		if r.Traced {
			continue
		}
		if _, ok := setup[r.Workload]; !ok {
			journeys = append(journeys, r.Workload)
		}
		setup[r.Workload] = append(setup[r.Workload], r.Metrics["setup_s"].Value)
		op[r.Workload] = append(op[r.Workload], r.Metrics["scout.op_p50_ms"].Value)
		seeds[r.Seed] = true
	}
	var seedList []int
	for s := range seeds {
		seedList = append(seedList, s)
	}
	slices.Sort(seedList)
	var b strings.Builder
	fmt.Fprintf(&b, "PR %s, commit %.7s, seeds %s (%s, %d CPUs; medians of the untraced runs):\n\n",
		pr, rec.Env.Commit, ranges(seedList), rec.Env.GoVersion, rec.Env.Nproc)
	b.WriteString("| journey | setup_s (s) | scout.op_p50_ms (ms) |\n|---|--:|--:|\n")
	for _, j := range journeys {
		fmt.Fprintf(&b, "| %s | %.3f | %.1f |\n", j, median(setup[j]), median(op[j]))
	}
	return b.String()
}

// median is the middle of vs, or the mean of its two middle values.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
