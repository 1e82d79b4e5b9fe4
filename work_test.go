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
)

// workColumns heads testdata/work.txt: a row is one op of one journey.
// Counters are what the op added to its session's SessionStats; base_nodes,
// delta_nodes and base_semantics are the gauges it left; state_bytes is the
// state directory's size after it.
var workColumns = []string{"journey", "op", "checked", "replayed", "fold_hits", "fold_misses",
	"base_nodes", "delta_nodes", "base_semantics", "base_builds", "base_loads",
	"plan_compiles", "plan_reuses", "probe_packets", "state_bytes"}

// deltaNodesCol is the one column a worker count moves: each fork's delta
// holds what its own switches compiled, and forks share nothing.
var deltaNodesCol = slices.Index(workColumns, "delta_nodes")

const workHeader = `# TestWork (work_test.go): the work each bench/ journey does, one row per op,
# on SmallFabricWorkloadSpec at seed 42 (8 switches) under workFabric's faults,
# in TCAM mode and in probe mode. "setup" is the run the journey starts from.
# delta_nodes is recorded at Workers 1, the one column that differs by worker
# count; every other column holds at Workers 1, 2 and NumCPU. For a deliberate
# change, replace this file with the text the failing test prints.
`

// workOps is how many ops each journey records after its set-up.
const workOps = 2

// workOp runs op k of a journey (0 is its set-up) and returns the
// counters of the session it ran on, before and after.
type workOp func(k int) (before, after scout.SessionStats)

// workJourneys are bench/'s five journeys through the public API. Each
// starts on a fresh workFabric and returns its op and the state directory
// it writes, if any.
var workJourneys = []struct {
	name  string
	start func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string)
}{
	{"cold-oneshot", func(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions) (workOp, string) {
		// A fresh session's one run is what Analyzer.Analyze runs.
		return func(int) (before, after scout.SessionStats) {
			sess := newSession(t, f, opts)
			mustReport(t, sess.Analyze)
			return before, sess.Stats()
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
		return func(int) (before, after scout.SessionStats) {
			o := opts
			o.WarmStore = warmStore(t, dir)
			sess := newSession(t, f, o)
			mustReport(t, sess.Analyze)
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			return before, sess.Stats()
		}, dir
	}},
}

// warmJourney is one session over f: set-up is its first run, and op k
// mutates the fabric and runs it again. epoch analyzes a collector epoch,
// as the warm bench/ journeys do, except in probe mode, which classifies
// against the live dataplane and so runs Analyze like the storm.
func warmJourney(t *testing.T, f *scout.Fabric, opts scout.AnalyzerOptions, epoch bool, mutate func(k int)) workOp {
	sess, col := newSession(t, f, opts), scout.NewCollector(f, 4)
	analyze := sess.Analyze
	if epoch && !opts.UseProbes {
		analyze = func() (*scout.Report, error) { return sess.AnalyzeEpoch(col.Snapshot()) }
	}
	return func(k int) (before, after scout.SessionStats) {
		if k > 0 {
			mutate(k)
		}
		before = sess.Stats()
		mustReport(t, analyze)
		return before, sess.Stats()
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
	f := cleanFabric(t, scout.SmallFabricWorkloadSpec(), scout.FabricOptions{Seed: 42, TCAMCapacity: 1 << 17})
	for _, fault := range []struct {
		ref      scout.ObjectRef
		fraction float64
	}{{scout.FilterRef(5002), 1}, {scout.ContractRef(3005), 1}, {scout.EPGRef(1004), 0.4}} {
		if _, err := f.InjectObjectFault(fault.ref, fault.fraction); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// workRows runs every journey in both modes at a worker count.
func workRows(t *testing.T, workers int) [][]string {
	var rows [][]string
	for _, probes := range []bool{false, true} {
		mode := "tcam/"
		if probes {
			mode = "probes/"
		}
		for _, j := range workJourneys {
			op, dir := j.start(t, workFabric(t), scout.AnalyzerOptions{Workers: workers, UseProbes: probes})
			for k := 0; k <= workOps; k++ {
				b, a := op(k)
				var stateBytes int
				if dir != "" {
					for _, data := range dirImage(t, dir) {
						stateBytes += len(data)
					}
				}
				row := []string{mode + j.name, strconv.Itoa(k)}
				if k == 0 {
					row[1] = "setup"
				}
				for _, n := range []int{a.Checked - b.Checked, a.Replayed - b.Replayed, a.FoldHits - b.FoldHits,
					a.FoldMisses - b.FoldMisses, a.BaseNodes, a.DeltaNodes, a.BaseSemantics,
					a.BaseRebuilds - b.BaseRebuilds, a.BaseLoads - b.BaseLoads, a.PlanCompiles - b.PlanCompiles,
					a.PlanReuses - b.PlanReuses, a.ProbePacketsBatched - b.ProbePacketsBatched, stateBytes} {
					row = append(row, strconv.Itoa(n))
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestWork pins the work of every journey in testdata/work.txt, as
// TestGolden pins report bytes: a change to what an op checks, replays,
// folds, builds, loads, compiles, classifies or writes is a reviewed diff
// of that file. It runs serially: plan counters are process-global.
func TestWork(t *testing.T) {
	rows := workRows(t, 1)
	for _, workers := range slices.Compact([]int{1, 2, runtime.NumCPU()})[1:] {
		for i, row := range workRows(t, workers) {
			for c := range row {
				if c != deltaNodesCol && row[c] != rows[i][c] {
					t.Errorf("Workers=%d %s op %s: %s is %s, %s at Workers 1",
						workers, row[0], row[1], workColumns[c], row[c], rows[i][c])
				}
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
	path := filepath.Join("testdata", "work.txt")
	data, _ := os.ReadFile(path) // a missing file differs from any record
	if bytes.Equal(got.Bytes(), data) {
		return
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == len(workColumns) && f[0] != workColumns[0] && !strings.HasPrefix(line, "#") {
			want[f[0]+" "+f[1]] = f
		}
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
