package scout_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scout"
	"scout/internal/eval"
)

// TestSessionWarmRestartIdentity pins the tentpole end to end: a fresh
// process (new store handle, new session) over an unchanged fabric
// restores the persisted base and verdicts and replays the previous
// report byte-identically — zero switches re-checked, zero lists
// compiled — at every worker count. A subsequent mutation re-checks
// exactly the dirty switch, proving the restored cache stays live, not
// just replayable.
func TestSessionWarmRestartIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		dir := t.TempDir()
		f := faultyFabric(t, 11)
		numSwitches := f.Topology().NumSwitches()
		opts := func(ws *scout.WarmStore) scout.AnalyzerOptions {
			return scout.AnalyzerOptions{Workers: workers, WarmStore: ws}
		}

		ws1, err := scout.OpenWarmStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess1, err := scout.NewSession(f, opts(ws1))
		if err != nil {
			t.Fatal(err)
		}
		rep1, err := sess1.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if st := sess1.Stats(); st.BaseRebuilds != 1 || st.BaseLoads != 0 || st.Checked != numSwitches {
			t.Fatalf("workers=%d cold stats: %+v", workers, st)
		}
		want := marshalReport(t, rep1)
		if err := sess1.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ws1.Close(); err != nil {
			t.Fatal(err)
		}

		// "Restart": a fresh store handle and session over the same
		// unchanged fabric.
		ws2, err := scout.OpenWarmStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess2, err := scout.NewSession(f, opts(ws2))
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := sess2.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		st := sess2.Stats()
		if st.BaseRebuilds != 0 || st.BaseLoads != 1 {
			t.Errorf("workers=%d: warm restart rebuilt the base: %+v", workers, st)
		}
		if st.Checked != 0 || st.Replayed != numSwitches {
			t.Errorf("workers=%d: warm restart checked %d, replayed %d, want 0/%d",
				workers, st.Checked, st.Replayed, numSwitches)
		}
		if st.FoldMisses != 0 {
			t.Errorf("workers=%d: warm restart compiled: %d fold misses", workers, st.FoldMisses)
		}
		if !bytes.Equal(want, marshalReport(t, rep2)) {
			t.Errorf("workers=%d: restarted report differs from original", workers)
		}

		// Dirty restart leg: mutate one switch; only it re-checks, and the
		// report still matches a cold analyzer on the same state.
		dirtySw := f.Topology().Switches()[0]
		removeOneRule(t, f, dirtySw)
		rep3, err := sess2.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		after := sess2.Stats()
		if got := after.Checked - st.Checked; got != 1 {
			t.Errorf("workers=%d: dirty restart re-checked %d switches, want 1", workers, got)
		}
		cold, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: workers}).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, rep3), marshalReport(t, cold)) {
			t.Errorf("workers=%d: dirty restart report differs from cold analyzer", workers)
		}
		if err := sess2.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ws2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSurfacesLostStateDir pins what happens when the state
// directory stops persisting under a running session (removed here after
// OpenWarmStore): every write-behind save fails, the reports are the ones
// a store-less analysis returns, and Close reports the first write that
// failed — the base's. The verdict load that runs between the base save
// and the verdict save waits for the queue without taking its error.
func TestSessionSurfacesLostStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	ws, err := scout.OpenWarmStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	f := faultyFabric(t, 11)
	sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: 2, WarmStore: ws})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		rep, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 2}).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
			t.Fatalf("round %d: report over a lost state directory differs from a cold analysis", round)
		}
		removeOneRule(t, f, f.Topology().Switches()[0])
	}
	if st := sess.Stats(); st.BaseRebuilds != 1 || st.BaseLoads != 0 {
		t.Errorf("stats over a lost state directory: %+v", st)
	}
	if err := sess.Close(); err == nil || !strings.Contains(err.Error(), "base-") {
		t.Fatalf("Close = %v, want the failed base write", err)
	}
}

// dirImage reads every file under a warm-state directory.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestOneShotIgnoresWarmStore pins what AnalyzerOptions.WarmStore documents
// now that a one-shot is a session's first run: an Analyzer handed a store
// writes nothing to it, and over a directory a session populated it loads
// nothing — it folds what a store-less analysis folds, where a restarted
// session folds nothing — and leaves every file as it found it.
func TestOneShotIgnoresWarmStore(t *testing.T) {
	for _, probes := range []bool{false, true} {
		dir := t.TempDir()
		f := faultyFabric(t, 11)
		open := func() *scout.WarmStore {
			t.Helper()
			ws, err := scout.OpenWarmStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return ws
		}
		oneShot := func(ws *scout.WarmStore) *scout.Report {
			t.Helper()
			rep, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseProbes: probes, WarmStore: ws}).Analyze(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.Close(); err != nil {
				t.Fatal(err)
			}
			return rep
		}

		plain, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseProbes: probes}).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		first := oneShot(open())
		if img := dirImage(t, dir); len(img) != 0 {
			t.Fatalf("probes=%v: a one-shot wrote %d warm-state files", probes, len(img))
		}

		ws := open()
		sess, err := scout.NewSession(f, scout.AnalyzerOptions{UseProbes: probes, WarmStore: ws})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Analyze(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		populated := dirImage(t, dir)
		if len(populated) == 0 {
			t.Fatalf("probes=%v: the session persisted nothing; the second half is vacuous", probes)
		}

		second := oneShot(open())
		if after := dirImage(t, dir); !reflect.DeepEqual(after, populated) {
			t.Errorf("probes=%v: a one-shot changed the warm-state directory", probes)
		}
		want := marshalReport(t, plain)
		if !bytes.Equal(marshalReport(t, first), want) || !bytes.Equal(marshalReport(t, second), want) {
			t.Errorf("probes=%v: a one-shot handed a store reports differently from one without", probes)
		}
		if probes {
			continue // no BDD state to have loaded
		}
		if plain.EncodeStats.FoldMisses == 0 {
			t.Fatal("the faulty fabric folded nothing privately; the load check is vacuous")
		}
		if got := second.EncodeStats.FoldMisses; got != plain.EncodeStats.FoldMisses {
			t.Errorf("one-shot over a populated store folded %d lists, want the %d of a store-less run (a restored verdict cache folds 0)",
				got, plain.EncodeStats.FoldMisses)
		}
	}
}

// asCodecV1 rewrites a warm-store file image the way codec version 1
// framed it: version 1 in the header, and for a base file the match-memo
// section version 1 kept between the snapshot and the semantics memo (one
// entry here, bound to the first frozen node), under a fresh checksum.
func asCodecV1(t *testing.T, img []byte, isBase bool) []byte {
	t.Helper()
	body := append([]byte(nil), img[:len(img)-8]...)
	binary.LittleEndian.PutUint32(body[4:], 1)
	if isBase {
		// The snapshot is numVars, numNodes, then three uvarints per
		// non-terminal node.
		off := 16
		next := func() uint64 {
			v, n := binary.Uvarint(body[off:])
			if n <= 0 {
				t.Fatal("cannot walk the snapshot section")
			}
			off += n
			return v
		}
		next()
		for i := 3 * (next() - 2); i > 0; i-- {
			next()
		}
		memo := []byte{1} // one match: VRF 1, src 2, dst 3, any proto, port 80, no wildcards, node 2
		for _, id := range []uint32{1, 2, 3} {
			memo = binary.LittleEndian.AppendUint32(memo, id)
		}
		memo = append(memo, 0, 80, 80, 0, 2)
		body = append(body[:off:off], append(memo, body[off:]...)...)
	}
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// TestSessionRebuildsOverOldCodecBase: warm state written by codec
// version 1 (whose base files carried a match memo) is a clean miss, never
// a misparse — the session rebuilds and re-checks as on a cold start,
// overwrites the same content-addressed files, and the restart after that
// loads them with nothing re-checked.
func TestSessionRebuildsOverOldCodecBase(t *testing.T) {
	dir := t.TempDir()
	f := faultyFabric(t, 11)
	numSwitches := f.Topology().NumSwitches()
	run := func() (scout.SessionStats, []byte) {
		t.Helper()
		ws, err := scout.OpenWarmStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := scout.NewSession(f, scout.AnalyzerOptions{Workers: 2, WarmStore: ws})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		return sess.Stats(), marshalReport(t, rep)
	}
	files := func() map[string][]byte {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "*.scout"))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(paths))
		for _, p := range paths {
			if out[p], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	_, want := run()
	current := files()
	bases := 0
	for path, img := range current {
		isBase := strings.HasPrefix(filepath.Base(path), "base-")
		if isBase {
			bases++
		}
		if err := os.WriteFile(path, asCodecV1(t, img, isBase), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if bases != 1 || len(current) != 2 {
		t.Fatalf("cold run left %d files, %d of them bases; want a base and a verdict file", len(current), bases)
	}

	st, got := run()
	if st.BaseRebuilds != 1 || st.BaseLoads != 0 || st.Checked != numSwitches {
		t.Errorf("restart over version-1 files: %+v, want one rebuild, no load, every switch checked", st)
	}
	if !bytes.Equal(want, got) {
		t.Error("report after rebuilding over version-1 files differs")
	}
	for path, img := range files() {
		if !bytes.Equal(img, current[path]) {
			t.Errorf("%s was not overwritten with the current encoding", filepath.Base(path))
		}
	}

	st, got = run()
	if st.BaseRebuilds != 0 || st.BaseLoads != 1 || st.Checked != 0 || st.Replayed != numSwitches || st.FoldMisses != 0 {
		t.Errorf("restart after the overwrite: %+v, want the base loaded and every switch replayed", st)
	}
	if !bytes.Equal(want, got) {
		t.Error("report after reloading the overwritten files differs")
	}
}

// TestSessionProbeWarmRestart pins the probe-mode half of durable warm
// state: probe verdicts persist keyed by the deployment fingerprint, so
// a restarted probe session replays a fingerprint-clean fabric with
// zero switches classified.
func TestSessionProbeWarmRestart(t *testing.T) {
	dir := t.TempDir()
	f := faultyFabric(t, 13)
	numSwitches := f.Topology().NumSwitches()
	opts := func(ws *scout.WarmStore) scout.AnalyzerOptions {
		return scout.AnalyzerOptions{UseProbes: true, WarmStore: ws}
	}

	ws1, err := scout.OpenWarmStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := scout.NewSession(f, opts(ws1))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := sess1.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if st := sess1.Stats(); st.Checked != numSwitches {
		t.Fatalf("cold probe stats: %+v", st)
	}
	want := marshalReport(t, rep1)
	if err := sess1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ws1.Close(); err != nil {
		t.Fatal(err)
	}

	ws2, err := scout.OpenWarmStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	sess2, err := scout.NewSession(f, opts(ws2))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sess2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	st := sess2.Stats()
	if st.Checked != 0 || st.Replayed != numSwitches || st.ProbePacketsBatched != 0 {
		t.Errorf("warm probe restart classified %d (%d packets), replayed %d, want 0 (0)/%d",
			st.Checked, st.ProbePacketsBatched, st.Replayed, numSwitches)
	}
	if !bytes.Equal(want, marshalReport(t, rep2)) {
		t.Error("restarted probe report differs from original")
	}
}

// TestSessionEqualContentRedeploy covers the recompile that changes
// nothing: Deploy on an unchanged policy hands the session a new
// *Deployment with the old fingerprint. The session keeps its base and
// its verdicts — nothing is built, loaded or re-checked, every switch
// replays — and rebuilds only the identity-keyed risk models, with the
// report still byte-equal to a cold analysis. The same holds across a
// restart: a new process given the redeployed pointer finds the first
// process's files under the unchanged fingerprint. Both observation
// sources.
func TestSessionEqualContentRedeploy(t *testing.T) {
	for _, probes := range []bool{false, true} {
		name := "tcam"
		if probes {
			name = "probes"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			f := faultyFabric(t, 11)
			n := f.Topology().NumSwitches()
			opts := func(ws *scout.WarmStore) scout.AnalyzerOptions {
				return scout.AnalyzerOptions{UseProbes: probes, WarmStore: ws}
			}
			// Both observation sources count under the same two counters.
			work := func(st scout.SessionStats) (checked, replayed int) {
				return st.Checked, st.Replayed
			}
			redeploy := func() {
				t.Helper()
				old := f.Deployment()
				if err := f.Deploy(); err != nil {
					t.Fatal(err)
				}
				if f.Deployment() == old {
					t.Fatal("Deploy kept the deployment pointer; the case is vacuous")
				}
			}
			coldJSON := func() []byte {
				t.Helper()
				cold, err := scout.NewAnalyzer(scout.AnalyzerOptions{UseProbes: probes}).Analyze(f)
				if err != nil {
					t.Fatal(err)
				}
				return marshalReport(t, cold)
			}

			ws1, err := scout.OpenWarmStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			sess1, err := scout.NewSession(f, opts(ws1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess1.Analyze(); err != nil {
				t.Fatal(err)
			}
			before := sess1.Stats()
			redeploy()
			rep, err := sess1.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			after := sess1.Stats()
			if after.BaseRebuilds != before.BaseRebuilds || after.BaseLoads != before.BaseLoads {
				t.Errorf("redeploy touched the base: rebuilds %d -> %d, loads %d -> %d",
					before.BaseRebuilds, after.BaseRebuilds, before.BaseLoads, after.BaseLoads)
			}
			c0, r0 := work(before)
			c1, r1 := work(after)
			if c1-c0 != 0 || r1-r0 != n {
				t.Errorf("redeploy checked %d, replayed %d, want 0/%d", c1-c0, r1-r0, n)
			}
			if !bytes.Equal(marshalReport(t, rep), coldJSON()) {
				t.Error("redeployed report differs from cold analyzer")
			}
			if err := sess1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ws1.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart onto yet another equal-content deployment.
			redeploy()
			ws2, err := scout.OpenWarmStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ws2.Close()
			sess2, err := scout.NewSession(f, opts(ws2))
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := sess2.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			st := sess2.Stats()
			wantLoads := 1
			if probes {
				wantLoads = 0 // probe sessions build and load no base
			}
			if st.BaseRebuilds != 0 || st.BaseLoads != wantLoads {
				t.Errorf("restart after redeploy: rebuilds %d, loads %d, want 0/%d", st.BaseRebuilds, st.BaseLoads, wantLoads)
			}
			if c, r := work(st); c != 0 || r != n {
				t.Errorf("restart after redeploy checked %d, replayed %d, want 0/%d", c, r, n)
			}
			if !bytes.Equal(marshalReport(t, rep2), coldJSON()) {
				t.Error("restarted report differs from cold analyzer")
			}
		})
	}
}

// TestSeededVerdictIsHashedNotTrusted pins how a run decides what to hash:
// a cache entry vouches for a T list only when it remembers that very
// slice, and an entry seeded from the warm store remembers none. Process 1
// persists a clean verdict for sw under policy B. Process 2 first sees sw
// broken under policy A — all but three of its rules gone, so its report is
// over the session's 4,096-rule cap on this production-density fabric and
// it holds no entry — and then policy B again, with sw's TCAM unchanged
// between the two epochs: the entry now in the cache is the one process 1's
// file seeded, and its fingerprint describes a TCAM that no longer exists.
// The report must be a cold analysis's. The emptied variant strips sw's
// TCAM to nothing, the one list with no address to tell from an entry that
// has no list.
func TestSeededVerdictIsHashedNotTrusted(t *testing.T) {
	for _, emptied := range []bool{false, true} {
		name := "three-left"
		if emptied {
			name = "emptied"
		}
		t.Run(name, func(t *testing.T) {
			const seed, rollout = 7, 64123
			pol, topo, err := scout.GenerateWorkload(eval.SimSpec(0.25), seed)
			if err != nil {
				t.Fatal(err)
			}
			f, err := scout.NewFabric(pol, topo, scout.FabricOptions{Seed: seed, TCAMCapacity: 1 << 17})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Deploy(); err != nil {
				t.Fatal(err)
			}
			contract := pol.Bindings[0].Contract
			policyA := f.Deployment()
			if err := f.AddFilter(scout.Filter{ID: rollout, Name: "rollout", Entries: []scout.FilterEntry{
				scout.PortEntry(scout.ProtoTCP, rollout),
			}}); err != nil {
				t.Fatal(err)
			}
			if err := f.AddFilterToContract(contract, rollout); err != nil {
				t.Fatal(err)
			}
			// sw is a switch the rollout does not reach: its logical list,
			// and so its persisted verdict's L fingerprint, is the same
			// under both policies.
			sw := scout.ObjectID(0)
			for _, cand := range topo.Switches() {
				if reflect.DeepEqual(policyA.RulesFor(cand), f.Deployment().RulesFor(cand)) {
					sw = cand
					break
				}
			}
			if sw == 0 {
				t.Fatal("the rollout changed every switch's logical rules; the case is vacuous")
			}

			dir := t.TempDir()
			open := func(opts scout.AnalyzerOptions) (*scout.Session, func()) {
				t.Helper()
				ws, err := scout.OpenWarmStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				opts.WarmStore = ws
				sess, err := scout.NewSession(f, opts)
				if err != nil {
					t.Fatal(err)
				}
				return sess, func() {
					t.Helper()
					if err := sess.Close(); err != nil {
						t.Fatal(err)
					}
					if err := ws.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}

			sess1, close1 := open(scout.AnalyzerOptions{})
			rep, err := sess1.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Consistent {
				t.Fatal("process 1: the clean fabric is inconsistent")
			}
			close1()

			if err := f.RemoveFilterFromContract(contract, rollout); err != nil {
				t.Fatal(err)
			}
			s, err := f.Switch(sw)
			if err != nil {
				t.Fatal(err)
			}
			installed := s.TCAM().Rules()
			if !emptied {
				installed = installed[3:]
			}
			keys := make([]scout.RuleKey, len(installed))
			for i, r := range installed {
				keys[i] = r.Key()
			}
			if got := s.TCAM().RemoveKeys(keys); got != len(keys) {
				t.Fatalf("removed %d of %d rules from switch %d", got, len(keys), sw)
			}

			sess2, close2 := open(scout.AnalyzerOptions{})
			defer close2()
			collector := scout.NewCollector(f, 4)
			rep, err = sess2.AnalyzeEpoch(collector.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if st := sess2.Stats(); !switchBroken(rep, sw) || st.OverCap != 1 {
				t.Fatalf("process 2, policy A: broken(%d)=%v, OverCap %d; want the switch broken and uncached",
					sw, switchBroken(rep, sw), st.OverCap)
			}

			if err := f.AddFilterToContract(contract, rollout); err != nil {
				t.Fatal(err)
			}
			e2 := collector.Snapshot()
			warm, err := sess2.AnalyzeEpoch(e2)
			if err != nil {
				t.Fatal(err)
			}
			if st := sess2.Stats(); st.BaseLoads != 1 {
				t.Fatalf("process 2, policy B: BaseLoads %d, want 1 (process 1's files were not found, so nothing was seeded)", st.BaseLoads)
			}
			cold, err := scout.NewAnalyzer().AnalyzeState(stateFromEpoch(f, e2))
			if err != nil {
				t.Fatal(err)
			}
			if !switchBroken(cold, sw) {
				t.Fatalf("cold analysis holds switch %d consistent; the case is vacuous", sw)
			}
			if !bytes.Equal(marshalReport(t, warm), marshalReport(t, cold)) {
				t.Errorf("warm report differs from a cold analysis of the same epoch: broken(%d) warm %v, cold %v",
					sw, switchBroken(warm, sw), switchBroken(cold, sw))
			}
		})
	}
}
