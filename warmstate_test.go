package scout_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scout"
	"scout/internal/eval"
)

// TestSessionWarmRestartIdentity: a fresh process (new store handle, new
// session) over an unchanged fabric loads the persisted base and replays
// every verdict, and a mutation after a restart re-checks exactly the
// dirty switch, so the restored cache is live, not just replayable.
func TestSessionWarmRestartIdentity(t *testing.T) {
	remove := func(t *testing.T, r *coldRun) { removeOneRule(t, r.f, switchesOf(r.f)[0]) }
	equalsCold(t, coldCase{fabric: seeded(11), entry: viaRestart, workers: 2, steps: []step{nil, remove}})
}

// TestSessionSurfacesLostStateDir pins what happens when the state
// directory stops persisting under a running session (removed here after
// OpenWarmStore): every save fails, the reports are the ones a store-less
// analysis returns, and Close reports the first write that failed — the
// base's. The verdict load that runs between the base save and the verdict
// save finds no file and takes nothing from the failed save.
func TestSessionSurfacesLostStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	ws := warmStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	f := faultyFabric(t, 11)
	sess := newSession(t, f, scout.AnalyzerOptions{Workers: 2, WarmStore: ws})
	for round := 0; round < 2; round++ {
		rep := mustReport(t, sess.Analyze)
		cold := oneShot(t, f, scout.AnalyzerOptions{Workers: 2})
		if !bytes.Equal(marshalReport(t, rep), marshalReport(t, cold)) {
			t.Fatalf("round %d: report over a lost state directory differs from a cold analysis", round)
		}
		removeOneRule(t, f, switchesOf(f)[0])
	}
	if st := sess.Stats(); st.BaseRebuilds != 1 || st.BaseLoads != 0 {
		t.Errorf("stats over a lost state directory: %+v", st)
	}
	if err := sess.Close(); err == nil || !strings.Contains(err.Error(), "base-") {
		t.Fatalf("Close = %v, want the failed base write", err)
	}
}

// TestSharedStoreKeepsSaveErrorsApart: two sessions over fabrics with
// different deployments share one store and run at once, and a directory
// squatting on A's base file makes A's save fail. A failed save belongs to
// the session whose save failed: B's Close, asked first, reports nothing,
// A's reports its base, and B's files are whole — a fresh session over B's
// fabric restarts from them.
func TestSharedStoreKeepsSaveErrorsApart(t *testing.T) {
	fa, fb := faultyFabric(t, 11), faultyFabric(t, 13)
	n := len(fb.Deployment().BySwitch)
	open := func(dir string) scout.AnalyzerOptions {
		return scout.AnalyzerOptions{Workers: 2, WarmStore: warmStore(t, dir)}
	}

	// A's base file name, from a store A's session fills on its own.
	prime := t.TempDir()
	mustReport(t, newSession(t, fa, open(prime)).Analyze)
	bases, err := filepath.Glob(filepath.Join(prime, "base-*"))
	if err != nil || len(bases) != 1 {
		t.Fatalf("priming A left bases %v (%v), want one", bases, err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, filepath.Base(bases[0])), 0o755); err != nil {
		t.Fatal(err)
	}

	shared := open(dir)
	sessA, sessB := newSession(t, fa, shared), newSession(t, fb, shared)
	var wg sync.WaitGroup
	for _, sess := range []*scout.Session{sessA, sessB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Analyze(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := sessB.Close(); err != nil {
		t.Errorf("B.Close = %v, want nil: only A's save failed", err)
	}
	if err := sessA.Close(); err == nil || !strings.Contains(err.Error(), "base-") {
		t.Errorf("A.Close = %v, want A's failed base write", err)
	}

	restart := newSession(t, fb, open(dir))
	mustReport(t, restart.Analyze)
	if st := restart.Stats(); st.BaseLoads != 1 || st.Checked != 0 || st.Replayed != n {
		t.Errorf("restart over B's files: %+v, want BaseLoads 1, Checked 0, Replayed %d", st, n)
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
		open := func() scout.AnalyzerOptions {
			return scout.AnalyzerOptions{UseProbes: probes, WarmStore: warmStore(t, dir)}
		}

		plain := oneShot(t, f, scout.AnalyzerOptions{UseProbes: probes})
		first := oneShot(t, f, open())
		if img := dirImage(t, dir); len(img) != 0 {
			t.Fatalf("probes=%v: a one-shot wrote %d warm-state files", probes, len(img))
		}

		sess := newSession(t, f, open())
		mustReport(t, sess.Analyze)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		populated := dirImage(t, dir)
		if len(populated) == 0 {
			t.Fatalf("probes=%v: the session persisted nothing; the second half is vacuous", probes)
		}

		second := oneShot(t, f, open())
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
	numSwitches := len(f.Deployment().BySwitch)
	run := func() (scout.SessionStats, []byte) {
		t.Helper()
		sess := newSession(t, f, scout.AnalyzerOptions{Workers: 2, WarmStore: warmStore(t, dir)})
		rep := mustReport(t, sess.Analyze)
		if err := sess.Close(); err != nil {
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

// TestSessionProbeWarmRestart: probe verdicts persist under the deployment
// fingerprint, so a restarted probe session replays a clean fabric with no
// switch probed.
func TestSessionProbeWarmRestart(t *testing.T) {
	equalsCold(t, coldCase{fabric: seeded(13), entry: viaRestart, probes: true, steps: []step{nil}})
}

// TestSessionEqualContentRedeploy covers the recompile that changes
// nothing: Deploy on an unchanged policy hands the session a new
// *Deployment with the old fingerprint. The session keeps its base and its
// verdicts and rebuilds only the identity-keyed risk models, and a new
// process given the redeployed pointer finds the first process's files
// under the unchanged fingerprint. Both observation sources.
func TestSessionEqualContentRedeploy(t *testing.T) {
	for _, probes := range []bool{false, true} {
		t.Run(modes[probes], func(t *testing.T) {
			colds := make(map[int][]byte)
			for _, e := range []entry{viaAnalyze, viaRestart} {
				equalsCold(t, coldCase{fabric: seeded(11), entry: e, probes: probes, steps: []step{redeploy}, colds: colds})
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
	t.Parallel()
	for _, emptied := range []bool{false, true} {
		name := "three-left"
		if emptied {
			name = "emptied"
		}
		t.Run(name, func(t *testing.T) {
			f := cleanFabric(t, eval.SimSpec(0.25), scout.FabricOptions{Seed: 7, TCAMCapacity: 1 << 17})
			policyA := f.Deployment()
			contract := rollout(t, f)
			// sw is a switch the rollout does not reach: its logical list,
			// and so its persisted verdict's L fingerprint, is the same
			// under both policies.
			sw := scout.ObjectID(0)
			for _, cand := range switchesOf(f) {
				if reflect.DeepEqual(policyA.RulesFor(cand), f.Deployment().RulesFor(cand)) {
					sw = cand
					break
				}
			}
			if sw == 0 {
				t.Fatal("the rollout changed every switch's logical rules; the case is vacuous")
			}

			dir := t.TempDir()
			sess1 := newSession(t, f, scout.AnalyzerOptions{WarmStore: warmStore(t, dir)})
			if rep := mustReport(t, sess1.Analyze); !rep.Consistent || sess1.Close() != nil {
				t.Fatal("process 1: the clean fabric is inconsistent, or its state was not saved")
			}

			if err := f.RemoveFilterFromContract(contract, rolloutFilter); err != nil {
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

			sess2 := newSession(t, f, scout.AnalyzerOptions{WarmStore: warmStore(t, dir)})
			collector := scout.NewCollector(f, 4)
			rep, err := sess2.AnalyzeEpoch(collector.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if st := sess2.Stats(); !switchBroken(rep, sw) || st.OverCap != 1 {
				t.Fatalf("process 2, policy A: broken(%d)=%v, OverCap %d; want the switch broken and uncached",
					sw, switchBroken(rep, sw), st.OverCap)
			}

			if err := f.AddFilterToContract(contract, rolloutFilter); err != nil {
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
			cold, err := scout.NewAnalyzer().AnalyzeState(fabricState(f))
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
			if err := sess2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
