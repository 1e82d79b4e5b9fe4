package scout_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"scout"
	"scout/internal/object"
	"scout/internal/workload"
)

// workColumns heads testdata/work.txt: a row is one op of one journey.
// Counters are the op's Report.Trace;
// state_bytes is the state directory's size after it; allocs and alloc_kb
// are the heap allocations the op made, in objects and KiB.
var workColumns = []string{"journey", "op", "checked", "replayed",
	"base_builds", "base_loads", "state_bytes", "allocs", "alloc_kb"}

// allocsCol is the first allocation column. The allocation columns are the
// ones a worker count moves: each worker allocates its own scratch.
var allocsCol = slices.Index(workColumns, "allocs")

// allocBand is how far an allocation column may move from its record, as a
// fraction of it. Ten runs at Workers 1 spread by at most 0.06% in allocs
// and 0.14% in alloc_kb on any row, with and without -race, and -race
// allocates up to 1.3% more KiB than a plain run (CHANGES.md, PR 51).
// MemStats counts the whole process, so a stray allocation elsewhere — the
// test framework's, the runtime's — can land in one op's cell: TestWork
// runs the journeys twice and keeps each cell's smaller value, which a
// stray allocation moves in one run only and a regression in both.
const allocBand = 0.02

// allocToolchain is the toolchain the allocation columns were recorded
// with. Another release's runtime, maps and compiler allocate differently,
// so under any other runtime.Version the columns are logged, not compared.
const allocToolchain = "go1.24.0"

const workHeader = `# TestWork (work_test.go): the work each bench/ journey does, one row per op,
# on SmallFabricWorkloadSpec at seed 42 (8 switches) under workFabric's faults.
# "setup" is the run the journey starts from; only restart has a warm store.
# allocs and alloc_kb are recorded at Workers 1, the smaller of two runs, and
# differ by worker count; every other column holds at Workers 1, 2 and NumCPU.
# allocs and alloc_kb were recorded with ` + allocToolchain + ` and hold within 2% there
# ("-" on a row that does not repeat); another toolchain logs them unchecked. For
# a deliberate change, replace this file with the text the failing test prints.
`

// workOps is how many ops each journey records after its set-up.
const workOps = 2

// workOp runs op k of a journey (0 is its set-up) and returns its
// report's trace.
type workOp func(k int) scout.Trace

// workJourneys are bench/'s five journeys through the public API. Each
// starts on a fresh workFabric and returns its op and the state directory
// it writes, if any.
var workJourneys = []struct {
	name  string
	start func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string)
}{
	{"cold-oneshot", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		return func(int) scout.Trace {
			return mustReport(t, func() (*scout.Report, error) { return scout.NewAnalyzer(opts).Analyze(f) }).Trace
		}, ""
	}},
	{"warm-clean", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		return warmJourney(t, f, opts, true, func(int) {}), ""
	}},
	{"warm-churn", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		churn, switches := churner(t, f), switchesOf(f)
		return warmJourney(t, f, opts, true, func(int) {
			for _, sw := range switches {
				churn(sw, 4)
			}
		}), ""
	}},
	{"event-storm", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		churn, switches := churner(t, f), switchesOf(f)
		return warmJourney(t, f, opts, false, func(k int) {
			churn(switches[k%len(switches)], 4)
			churn(switches[(k+1)%len(switches)], 4)
		}), ""
	}},
	{"restart", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		// Set-up primes the directory; every op is a new process's session.
		dir := t.TempDir()
		return func(int) scout.Trace {
			o := opts
			o.WarmStore = warmStore(t, dir)
			sess := newSession(t, f, o)
			rep := mustReport(t, sess.Analyze)
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			return rep.Trace
		}, dir
	}},
}

// warmJourney is one session over f: set-up is its first run, and op k
// mutates the fabric and runs it again. epoch analyzes a collector epoch,
// as the warm bench/ journeys do; otherwise it runs Analyze, like the storm.
func warmJourney(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions, epoch bool, mutate func(k int)) workOp {
	sess, col := newSession(t, f, opts), scout.NewCollector(f, 4)
	analyze := sess.Analyze
	if epoch {
		analyze = func() (*scout.Report, error) { return sess.AnalyzeEpoch(col.Snapshot()) }
	}
	return func(k int) scout.Trace {
		if k > 0 {
			mutate(k)
		}
		return mustReport(t, analyze).Trace
	}
}

// churner reinstalls the rules it last evicted from a switch and evicts n
// more: the journeys' eviction window is 4 rules.
func churner(t testing.TB, f *scout.Fabric) func(sw scout.ObjectID, n int) {
	evicted := make(map[scout.ObjectID][]scout.Rule)
	return func(sw scout.ObjectID, n int) {
		s, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range evicted[sw] {
			if err := s.TCAM().Install(r); err != nil {
				t.Fatal(err)
			}
		}
		if evicted[sw], err = f.EvictTCAM(sw, n); err != nil {
			t.Fatal(err)
		}
	}
}

// workFabric is TestWork's input: the small fabric at seed 42 under a fixed
// fault set of a whole filter, a whole contract and part of an EPG.
func workFabric(t *testing.T) *scout.Fabric {
	f := cleanFabric(t, workload.SmallFabricSpec(), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	for _, fault := range []struct {
		ref      scout.ObjectRef
		fraction float64
	}{{scout.FilterRef(5002), 1}, {object.Contract(3005), 1}, {object.EPG(1004), 0.4}} {
		if _, err := f.InjectObjectFault(fault.ref, fault.fraction); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// workRows runs every journey at a worker count. A row's journey is named
// tcam/<journey>, the TCAM check being the one observation source.
func workRows(t *testing.T, workers int) [][]string {
	var rows [][]string
	for _, j := range workJourneys {
		op, dir := j.start(t, workFabric(t), scout.AnalyzerOptions{Workers: workers})
		for k := 0; k <= workOps; k++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			tr := op(k)
			runtime.ReadMemStats(&m1)
			var stateBytes int
			if dir != "" {
				for _, data := range dirImage(t, dir) {
					stateBytes += len(data)
				}
			}
			row := []string{"tcam/" + j.name, strconv.Itoa(k)}
			if k == 0 {
				row[1] = "setup"
			}
			for _, n := range []int{tr.Checked, tr.Replayed, tr.BaseRebuilds, tr.BaseLoads, stateBytes,
				int(m1.Mallocs - m0.Mallocs), int((m1.TotalAlloc - m0.TotalAlloc) / 1024)} {
				row = append(row, strconv.Itoa(n))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestWork pins the work of every journey in testdata/work.txt, as
// TestGolden pins report bytes: a change to what an op checks, replays,
// compiles, builds, loads, writes or allocates is a reviewed
// diff of that file. It runs serially: MemStats is process-global.
func TestWork(t *testing.T) {
	rows := workRows(t, 1)
	// The Workers-1 journeys run twice, and each allocation cell keeps the
	// smaller run (allocBand); every other column holds at each worker
	// count and on the second run alike.
	for k, workers := range append([]int{1}, slices.Compact([]int{1, 2, runtime.NumCPU()})[1:]...) {
		for i, row := range workRows(t, workers) {
			for c := range row {
				switch {
				case c < allocsCol && row[c] != rows[i][c]:
					t.Errorf("Workers=%d %s op %s: %s is %s, %s at Workers 1",
						workers, row[0], row[1], workColumns[c], row[c], rows[i][c])
				case c >= allocsCol && k == 0 && atoi(row[c]) < atoi(rows[i][c]):
					rows[i][c] = row[c]
				}
			}
		}
	}

	path := filepath.Join("testdata", "work.txt")
	data, _ := os.ReadFile(path) // a missing file differs from any record
	want := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == len(workColumns) && f[0] != workColumns[0] && !strings.HasPrefix(line, "#") {
			want[f[0]+" "+f[1]] = f
		}
	}
	// An allocation within the band of its record, or on a row recorded
	// as "-", reads as the record. Off allocToolchain every allocation
	// reads as its record, or as "-" on a row with none.
	recorded := runtime.Version() == allocToolchain
	for _, row := range rows {
		w, ok := want[row[0]+" "+row[1]]
		if !recorded {
			t.Logf("%s op %s under %s: allocs %s, alloc_kb %s (compared under %s only)",
				row[0], row[1], runtime.Version(), row[allocsCol], row[allocsCol+1], allocToolchain)
		}
		for c := allocsCol; c < len(row); c++ {
			switch {
			case ok && (w[c] == "-" || !recorded || inBand(row[c], w[c])):
				if recorded && row[c] != w[c] && w[c] != "-" { // drift, visible before it leaves the band
					t.Logf("%s op %s: %s is %s, recorded %s", row[0], row[1], workColumns[c], row[c], w[c])
				}
				row[c] = w[c]
			case !recorded:
				row[c] = "-"
			}
		}
	}
	var got bytes.Buffer
	got.WriteString(workHeader)
	tw := tabwriter.NewWriter(&got, 0, 0, 1, ' ', 0)
	for _, row := range append([][]string{workColumns}, rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if bytes.Equal(got.Bytes(), data) {
		return
	}
	for _, row := range rows {
		key := row[0] + " " + row[1]
		w, ok := want[key]
		delete(want, key)
		if !ok {
			t.Errorf("%s op %s: no row in %s", row[0], row[1], path)
			continue
		}
		for c := 2; c < len(row); c++ {
			if row[c] != w[c] {
				t.Errorf("%s op %s: %s is %s, %s has %s", row[0], row[1], workColumns[c], row[c], path, w[c])
			}
		}
	}
	for key := range want {
		t.Errorf("%s: row %q matches no op; delete it", path, key)
	}
	t.Errorf("%s is now:\n%s", path, got.String())
}

// atoi reads a cell workRows wrote.
func atoi(cell string) int {
	n, _ := strconv.Atoi(cell)
	return n
}

// inBand reports whether measured allocation count got is within allocBand
// of the recorded want.
func inBand(got, want string) bool {
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	return err1 == nil && err2 == nil && g >= w*(1-allocBand) && g <= w*(1+allocBand)
}
