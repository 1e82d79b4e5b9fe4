package scout_test

// The package's case runner, equalsCold. A case is a fabric, a session over
// it with a warm store of its own (or none), and a script of steps: a
// literal list, or one drawn from an oracle.Choices (a seed's stream or a
// fuzzer's bytes).
// The session analyzes the fabric before the script and after every step
// through the case's entry point, and the runner holds each run to
//   - a serial one-shot analysis of the same state, byte for byte (or its
//     error), which must leave the store it is handed as it found it and,
//     on the last state, be refAnalyze's, whose checks are all the BDD
//     checker's;
//   - a model of the session kept from what each step touched: the verdicts
//     cached and their rule lists, the store files that load and what a
//     verdict file holds. The store holds one deployment: a save evicts
//     every other deployment's files. From the model follow every counter
//     the session keeps and what Close reports; a session with no store
//     builds no base.
//
// At the end every deployment's rules still carry the provenance they were
// compiled with. Each Test* is a case: a seed, a step list or an option set.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scout"
	"scout/internal/equiv"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
	"scout/internal/workload"
)

// entry is the way a case hands each state to its session.
type entry byte

const (
	viaAnalyze entry = iota // Session.Analyze
	viaEpoch                // Session.AnalyzeEpoch of a fresh collector snapshot
	viaState                // Session.AnalyzeState of the case's state
	viaRestart              // Session.Analyze of a session reopened on the case's store
	viaEvents               // Session.ApplyEvents of the fabric's events, cut three switches at a time
)

func (e entry) String() string {
	return [...]string{"Analyze", "AnalyzeEpoch", "AnalyzeState", "Restart", "ApplyEvents"}[e]
}

// op is a step's kind: every mutation the public API offers, then (from
// opRestart on) the session calls, which leave the fabric alone.
type op byte

const (
	opNone      op = iota // nothing changes: every verdict replays
	opEvict               // 1+y%3 rules evicted from switch x
	opCorrupt             // 1+y/4%2 rules of switch x corrupted in field 1+y%4
	opFault               // filter x failed in full, at half or at 0.3
	opSilent              // exact allow rule y of switch x removed through Switch.TCAM, which emits no event
	opStrip               // switch x stripped to its first y%4 rules through Switch.TCAM
	opRestore             // the rules steps removed through switch x's TCAM reinstalled
	opAgent               // switch x's agent crashed, or restarted
	opLink                // switch x disconnected, or reconnected
	opAddFilter           // a new filter on port 9000+y attached to contract x
	opShare               // filter y attached to contract x as well
	opDetach              // filter y of those contract x deploys detached from it
	opBind                // contract x+y bound to deployed EPGs x and y
	opRevert              // filter y attached to contract x and detached again, or the reverse
	opPoison              // badRule installed on switch x, or removed
	opRedeploy            // Deploy of the unchanged policy
	opRestart             // a restart onto the store: harm y%8 to store file x first, then workers y/8%4
	numOps
)

// badRule is opPoison's rule: at priority 0 it lands after the default
// deny, its VRF is past the BDD's 16 bits, and its port range is inverted,
// which every check refuses.
var badRule = scout.Rule{Match: rule.Match{VRF: 1 << 17, SrcEPG: 1, DstEPG: 2, PortLo: 80, PortHi: 79}, Action: rule.Allow}

// step is one op and its arguments. A switch, contract or EPG argument
// picks among the deployed ones in ascending ID order, cyclically (a switch
// among those that host endpoints); a filter, among the deployed ones and
// those opAddFilter added, newest first.
type step struct {
	op   op
	x, y byte
}

// touchesFabric reports whether s can change the analyzed state.
func (s step) touchesFabric() bool { return s.op != opNone && s.op < opRestart }

// Harms to a store file before a restart (opRestart's y%8); 0 and 7
// leave the store alone.
const (
	harmFlip   = 1 + iota // a bit flipped
	harmCut               // truncated to half
	harmV2                // reframed as codec version 2 wrote it (asCodecV2)
	harmSquat             // replaced by a directory, so a read and a save of it fail
	harmLoseIt            // the whole directory removed once the new session opened it
	harmFewer             // the fabric's deployment's base saved with one list fewer (fewerRoots)
)

// drawSteps draws n steps from c, each of an op among ops (any op when
// none are given).
func drawSteps(c *oracle.Choices, n int, ops ...op) []step {
	steps := make([]step, n)
	for i := range steps {
		o := op(c.Intn(int(numOps)))
		if len(ops) > 0 {
			o = ops[int(o)%len(ops)]
		}
		steps[i] = step{o, c.Byte(), c.Byte()}
	}
	return steps
}

// drawn is n steps drawn from seed.
func drawn(seed int64, n int, ops ...op) []step { return drawSteps(oracle.FromSeed(seed), n, ops...) }

// tour takes every op, the session calls between fabric writes.
var tour = []step{
	{opNone, 0, 0}, {opEvict, 1, 1}, {opCorrupt, 4, 6}, {opSilent, 5, 0},
	{opFault, 1, 1}, {opRestart, 0, harmFlip}, {opAgent, 0, 0}, {opAddFilter, 0, 3}, {opAgent, 0, 0},
	{opLink, 3, 0}, {opShare, 1, 0}, {opDetach, 1, 0}, {opStrip, 2, 1}, {opBind, 0, 1},
	{opRevert, 1, 1}, {opRestore, 2, 0}, {opPoison, 3, 0}, {opPoison, 3, 0}, {opRedeploy, 0, 0},
	{opRestart, 1, 8*2 + harmV2},
}

// coldCase is one input of equalsCold.
type coldCase struct {
	fabric func(testing.TB) *scout.Fabric // nil is faultyFabric at seed 11
	// state is what viaState analyzes; nil is fabricState.
	state   func(testing.TB, *scout.Fabric) scout.State
	steps   []step
	entry   entry
	workers int
	noStore bool // the session has no warm store, so it builds, loads and saves no base
	clean   bool // the fabric starts consistent
	// colds keeps each step's cold report. Cases sharing one must run the
	// same fabric and script, so their states are equal step by step.
	colds map[int][]byte
}

// seeded is a case's fabric: faultyFabric at seed.
func seeded(seed int64) func(testing.TB) *scout.Fabric {
	return func(t testing.TB) *scout.Fabric { return faultyFabric(t, seed) }
}

// verdict is a cached verdict's key in the model: the L and T lists it was
// computed from.
type verdict [2][]scout.Rule

// coldRun is a case in progress: its fabric, session and store, and the
// model of what the session holds.
type coldRun struct {
	coldCase
	f      *scout.Fabric
	sess   *scout.Session
	ws     *scout.WarmStore
	dir    string
	epochs *scout.Collector
	events *faultlog.Cursor
	queue  *scout.EventQueue
	batch  scout.EventBatch // what viaEvents hands ApplyEvents
	last   *scout.Report    // the latest report
	round  int

	// What the steps did to the fabric, for the ops that toggle or undo:
	// the switches an opAgent, opLink or opPoison left on, the rules steps
	// removed through a TCAM, and the filters opAddFilter added.
	on      map[toggle]bool
	removed map[scout.ObjectID][]scout.Rule
	added   []scout.ObjectID

	// The session's model.
	want    scout.SessionStats // the counters the session must show
	cache   map[scout.ObjectID]verdict
	dep     *scout.Deployment // the latest run's deployment, nil after a restart
	fp      uint64            // dep's fingerprint
	saveErr string

	// The store's model: the files that load, with a verdict file's
	// entries; every file of a deployment, loadable or harmed, and the
	// deployment it is of; the names a directory squats on; whether the
	// directory is gone; and each base file's first image.
	good    map[string]map[scout.ObjectID]verdict
	files   map[string]uint64
	squat   map[string]bool
	lost    bool
	baseImg map[string][]byte

	held     []heldRule
	heldDeps map[*scout.Deployment]bool
	// counts are the session's and the report's counters after each run.
	counts []string
}

// toggle is an op that a second step on the same switch undoes.
type toggle struct {
	op op
	sw scout.ObjectID
}

// heldRule is a deployed rule and the provenance it was compiled with.
type heldRule struct {
	rule       *scout.Rule
	orig, want []scout.ObjectRef
}

// equalsCold runs c and returns the run for the caller's own checks.
func equalsCold(t *testing.T, c coldCase) *coldRun {
	t.Helper()
	if c.fabric == nil {
		c.fabric = seeded(11)
	}
	if c.state == nil {
		c.state = func(_ testing.TB, f *scout.Fabric) scout.State { return fabricState(f) }
	}
	if c.colds == nil {
		c.colds = make(map[int][]byte)
	}
	r := newRun(c.fabric(t))
	r.coldCase, r.dir = c, t.TempDir()
	r.epochs = scout.NewCollector(r.f, 2)
	r.events, r.queue = r.f.EventLog().TailCursor(), scout.NewEventQueue(scout.EventQueueOptions{Cap: 64, BatchSize: 3})
	r.open(t)
	for r.round = 0; r.round <= len(r.steps); r.round++ {
		if r.round > 0 {
			r.apply(t, r.steps[r.round-1])
		}
		switch r.entry {
		case viaRestart:
			r.restart(t, 0, 0)
		case viaEvents:
			r.applyEvents(t)
		}
		r.analyze(t)
	}
	r.close(t)
	for _, h := range r.held {
		if !slices.Equal(h.rule.Provenance, h.want) || len(h.orig) > 0 && &h.rule.Provenance[0] != &h.orig[0] {
			t.Fatalf("provenance of %s was written: %v, compiled as %v", h.rule, h.rule.Provenance, h.want)
		}
	}
	return r
}

func newRun(f *scout.Fabric) *coldRun {
	return &coldRun{f: f, on: map[toggle]bool{}, removed: map[scout.ObjectID][]scout.Rule{}, cache: map[scout.ObjectID]verdict{},
		good: map[string]map[scout.ObjectID]verdict{}, files: map[string]uint64{}, squat: map[string]bool{}, baseImg: map[string][]byte{},
		heldDeps: map[*scout.Deployment]bool{}}
}

// mutate takes steps that touch only the fabric, analyzing nothing.
func mutate(t testing.TB, f *scout.Fabric, steps []step) {
	r := newRun(f)
	for _, s := range steps {
		r.apply(t, s)
	}
}

// switches are the fabric's switches that hold rules between endpoint
// groups, ascending: one that hosts no endpoint holds only defaults.
func (r *coldRun) switches() []scout.ObjectID {
	d := r.f.Deployment()
	return slices.DeleteFunc(switchesOf(r.f), func(sw scout.ObjectID) bool { return exactAllows(d.BySwitch[sw]) == 0 })
}

// pick returns the x-th of ids, cyclically.
func pick[T any](ids []T, x byte) T { return ids[int(x)%len(ids)] }

// apply takes one step.
func (r *coldRun) apply(t testing.TB, s step) {
	f, sw := r.f, pick(r.switches(), s.x)
	contract := func(x byte) scout.ObjectID { return pick(deployedIDs(f, object.KindContract), x) }
	filter := func(x byte) scout.ObjectID {
		ids := append(deployedIDs(f, object.KindFilter), r.added...)
		slices.Sort(ids)
		ids = slices.Compact(ids)
		slices.Reverse(ids)
		return pick(ids, x)
	}
	table := func() *tcam.TCAM {
		w, err := f.Switch(sw)
		if err != nil {
			t.Fatal(err)
		}
		return w.TCAM()
	}
	remove := func(gone []scout.Rule) {
		keys := make([]rule.Key, len(gone))
		for i, x := range gone {
			keys[i] = x.Key()
		}
		table().RemoveKeys(keys)
		r.removed[sw] = append(r.removed[sw], gone...)
	}
	// flip toggles the op on the switch and reports whether it is now on.
	flip := func() bool {
		k := toggle{s.op, sw}
		r.on[k] = !r.on[k]
		return r.on[k]
	}
	var err error
	switch s.op {
	case opEvict:
		_, err = f.EvictTCAM(sw, 1+int(s.y)%3)
	case opCorrupt:
		_, err = f.CorruptTCAM(sw, 1+int(s.y)/4%2, tcam.CorruptionField(1+s.y%4))
	case opFault:
		_, err = f.InjectObjectFault(scout.FilterRef(filter(s.x)), []float64{1, 0.5, 0.3}[s.y%3])
	case opSilent:
		rules := slices.DeleteFunc(slices.Clone(table().Rules()), func(x scout.Rule) bool { return exactAllows([]scout.Rule{x}) == 0 })
		if len(rules) > 0 {
			remove([]scout.Rule{pick(rules, s.y)})
		}
	case opStrip:
		rules := table().Rules()
		remove(rules[min(int(s.y)%4, len(rules)):])
	case opRestore:
		table().InstallAll(r.removed[sw])
		delete(r.removed, sw)
	case opAgent:
		if flip() {
			err = f.CrashAgent(sw)
		} else {
			err = f.RestartAgent(sw)
		}
	case opLink:
		if flip() {
			err = f.Disconnect(sw)
		} else {
			err = f.Reconnect(sw)
		}
	case opAddFilter:
		id := 64001 + scout.ObjectID(len(r.added))
		r.added = append(r.added, id)
		err = errors.Join(f.AddFilter(scout.Filter{ID: id, Name: "drawn", Entries: []scout.FilterEntry{
			scout.PortEntry(scout.ProtoTCP, 9000+uint16(s.y)),
		}}), f.AddFilterToContract(contract(s.x), id))
	case opShare:
		f.AddFilterToContract(contract(s.x), filter(s.y)) // refused when the contract has it
	case opDetach:
		if ids := filtersOf(f, contract(s.x)); len(ids) > 0 {
			slices.Reverse(ids)
			err = f.RemoveFilterFromContract(contract(s.x), pick(ids, s.y))
		}
	case opBind:
		epgs := deployedIDs(f, object.KindEPG)
		f.AddBinding(pick(epgs, s.x), pick(epgs, s.y), contract(s.x+s.y)) // refused when bound, or across VRFs
	case opRevert:
		c, id := contract(s.x), filter(s.y)
		if f.AddFilterToContract(c, id) == nil {
			err = f.RemoveFilterFromContract(c, id)
		} else {
			err = errors.Join(f.RemoveFilterFromContract(c, id), f.AddFilterToContract(c, id))
		}
	case opPoison:
		if flip() {
			table().InstallAll([]scout.Rule{badRule})
		} else {
			table().Remove(badRule.Key())
		}
	case opRedeploy:
		err = f.Deploy()
	case opRestart:
		r.restart(t, s.x, s.y)
	}
	if err != nil {
		t.Fatalf("step %d %+v: %v", r.round, s, err)
	}
}

// filtersOf returns the deployed filters of a contract, ascending.
func filtersOf(f *scout.Fabric, contract scout.ObjectID) []scout.ObjectID {
	ids := make(map[scout.ObjectID]bool)
	for _, refs := range f.Deployment().Provenance {
		if slices.Contains(refs, object.Contract(contract)) {
			for _, ref := range refs {
				if ref.Kind == object.KindFilter {
					ids[ref.ID] = true
				}
			}
		}
	}
	return sortedIDs(ids)
}

// close closes the session, whose Close reports its first failed save.
func (r *coldRun) close(t testing.TB) {
	if err := r.sess.Close(); r.saveErr == "" && err != nil || r.saveErr != "" && (err == nil || !strings.Contains(err.Error(), r.saveErr)) {
		t.Errorf("step %d: Close = %v, want the failed save of %q", r.round, err, r.saveErr)
	}
	r.saveErr = ""
}

// open opens the case's session on a fresh handle of its store, if it has
// one.
func (r *coldRun) open(t testing.TB) {
	if r.ws = nil; !r.noStore {
		r.ws = warmStore(t, r.dir)
	}
	r.sess = newSession(t, r.f, scout.AnalyzerOptions{Workers: r.workers, WarmStore: r.ws})
}

// restart closes the session, harms store file x as harm%8 says, and opens
// a session at worker count harm/8%4 (0 keeps it) on the store, which is
// all the new session holds.
func (r *coldRun) restart(t testing.TB, x, harm byte) {
	r.close(t)
	paths, _ := filepath.Glob(filepath.Join(r.dir, "*.scout"))
	paths = slices.DeleteFunc(paths, func(path string) bool { return r.squat[filepath.Base(path)] })
	if h := harm % 8; h >= harmFlip && h <= harmSquat && len(paths) > 0 {
		path := pick(paths, x)
		name := filepath.Base(path)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch h {
		case harmFlip:
			img[len(img)/2] ^= 1
		case harmCut:
			img = img[:len(img)/2]
		case harmV2:
			img = asCodecV2(img)
		case harmSquat:
			r.squat[name] = true
			delete(r.files, name)
			err = errors.Join(os.Remove(path), os.Mkdir(path, 0o755))
		}
		if h != harmSquat {
			err = os.WriteFile(path, img, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		delete(r.good, name)
	}
	if harm%8 == harmFewer {
		r.fewerRoots(t)
	}
	r.workers, r.lost = []int{r.workers, 1, 2, 0}[harm/8%4], false
	r.open(t)
	if harm%8 == harmLoseIt {
		if err := os.RemoveAll(r.dir); err != nil {
			t.Fatal(err)
		}
		r.lost = true
		clear(r.good)
		clear(r.files)
		clear(r.squat)
	}
	r.want, r.dep = scout.SessionStats{}, nil
	clear(r.cache)
}

// fewerRoots saves, under the fingerprint of the fabric's deployment, a
// valid base of all its logical lists but the first, as a session saves a
// base. The file loads, and the next session must find its root count
// wrong and rebuild: the model holds it as a file that does not load.
func (r *coldRun) fewerRoots(t testing.TB) {
	d := r.f.Deployment()
	_, fp := equiv.DeploymentFingerprints(d.BySwitch)
	name := fmt.Sprintf("base-%016x.scout", fp)
	if r.ws == nil || r.lost || r.squat[name] {
		return
	}
	var fewer [][]scout.Rule
	for _, sw := range switchesOf(r.f)[1:] {
		fewer = append(fewer, d.BySwitch[sw])
	}
	if err := r.ws.SaveBase(fp, equiv.NewBaseWith(fewer...)); err != nil {
		t.Fatal(err)
	}
	r.save(fp, name, nil)
	delete(r.good, name)
}

// save models a store save of deployment fp's file name: it fails on a
// lost directory or a squatted name, and the session's first failure is
// what Close reports. A save that succeeds evicts every file of another
// deployment: the store holds one.
func (r *coldRun) save(fp uint64, name string, entries map[scout.ObjectID]verdict) {
	if r.lost || r.squat[name] {
		if r.saveErr == "" {
			r.saveErr = name
		}
		return
	}
	r.good[name], r.files[name] = entries, fp
	for file, of := range r.files {
		if of != fp {
			delete(r.files, file)
			delete(r.good, file)
		}
	}
}

// verdictFile names the session's verdict file for a deployment fingerprint.
func verdictFile(fp uint64) string { return fmt.Sprintf("checks-%016x.scout", fp) }

// resolve brings the model in step with the run's state, as Session.run
// does before it checks anything, and returns how many bases the run
// builds and loads. New deployment content, with a store, loads its base
// if the store holds one that loads with a root per logical list and
// builds and saves it otherwise. Its verdict file is adopted or dropped,
// verdict by verdict, by this run: a switch the cache holds nothing for
// takes the file's verdict if its L and T lists are this run's, and every
// other verdict of the file is gone, whatever a later run holds. With no
// store it builds and loads nothing.
func (r *coldRun) resolve(st scout.State) (built, loaded int) {
	d := st.Deployment
	if d == r.dep {
		return 0, 0
	}
	r.hold(d)
	_, fp := equiv.DeploymentFingerprints(d.BySwitch)
	fresh := r.dep == nil || fp != r.fp
	r.dep, r.fp = d, fp
	if !fresh || r.ws == nil {
		return 0, 0
	}
	if name := fmt.Sprintf("base-%016x.scout", fp); r.good[name] != nil {
		loaded = 1
	} else {
		built = 1
		r.save(fp, name, map[scout.ObjectID]verdict{})
	}
	for sw, v := range r.good[verdictFile(fp)] {
		l, tl := d.RulesFor(sw), st.TCAM[sw]
		if _, ok := r.cache[sw]; !ok && sameRules(v[0], l) && sameRules(v[1], tl) {
			r.cache[sw] = verdict{l, tl}
		}
	}
	return built, loaded
}

// hold records the provenance of d's rules, once per deployment.
func (r *coldRun) hold(d *scout.Deployment) {
	if r.heldDeps[d] {
		return
	}
	r.heldDeps[d] = true
	for _, rules := range d.BySwitch {
		for i := range rules {
			r.held = append(r.held, heldRule{&rules[i], rules[i].Provenance, slices.Clone(rules[i].Provenance)})
		}
	}
}

// applyEvents analyzes each batch the queue cuts from the fabric's events
// since the previous run, leaving r.batch empty once the queue is drained
// for the round's own analysis.
func (r *coldRun) applyEvents(t *testing.T) {
	t.Helper()
	for _, ev := range r.events.Drain() {
		if r.queue.Push(ev) {
			r.batch = r.queue.Cut(r.f.Now())
			r.analyze(t)
		}
	}
	for r.batch = r.queue.Cut(r.f.Now()); len(r.batch.Switches) > 0; r.batch = r.queue.Cut(r.f.Now()) {
		r.analyze(t)
	}
}

// analyze runs the session on the fabric's state through the case's entry
// point and holds the run to the cold analysis and the model.
func (r *coldRun) analyze(t *testing.T) {
	t.Helper()
	st := fabricState(r.f)
	if r.entry == viaState {
		st = r.state(t, r.f)
	}
	want := r.cold(t, st)
	built, loaded := r.resolve(st)
	var rep *scout.Report
	var err error
	switch r.entry {
	case viaEpoch:
		rep, err = r.sess.AnalyzeEpoch(r.epochs.Snapshot())
	case viaState:
		rep, err = r.sess.AnalyzeState(st)
	case viaEvents:
		rep, err = r.sess.ApplyEvents(r.batch)
	default:
		rep, err = r.sess.Analyze()
	}
	got := []byte(fmt.Sprint("error: ", err))
	if err != nil && rep != nil {
		t.Fatalf("step %d: a failed run returned a report", r.round)
	} else if err == nil {
		got, r.last = marshalReport(t, rep), rep
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: the %s report differs from a cold analysis of the same state:\n%.300s\n%.300s", r.round, r.entry, got, want)
	}

	// The run's trace and the session's counters, their running sum, as the
	// model says. A switch replays if the cache holds a verdict for its
	// lists, and otherwise is checked and its verdict cached.
	exp, checked, replayed := &r.want, 0, 0
	exp.BaseRebuilds, exp.BaseLoads = exp.BaseRebuilds+built, exp.BaseLoads+loaded
	for i := 0; err == nil && i < len(rep.Switches); i++ {
		sr := rep.Switches[i]
		l, tl := st.Deployment.RulesFor(sr.Switch), st.TCAM[sr.Switch]
		if v, ok := r.cache[sr.Switch]; ok && sameRules(v[0], l) && sameRules(v[1], tl) {
			replayed++
			continue
		}
		checked++
		r.cache[sr.Switch] = verdict{l, tl}
	}
	if err == nil {
		exp.Runs, exp.Checked, exp.Replayed = exp.Runs+1, exp.Checked+checked, exp.Replayed+replayed
		if checked > 0 && r.ws != nil {
			r.save(r.fp, verdictFile(r.fp), maps.Clone(r.cache))
		}
	}
	now := r.sess.Stats()
	if now != *exp {
		t.Fatalf("step %d: the session counted\n%+v, want\n%+v", r.round, now, *exp)
	}
	if err != nil {
		return
	}
	r.counts = append(r.counts, fmt.Sprintf("%+v %+v", now, rep.EncodeStats))
	tr, model := rep.Trace, [4]int{checked, replayed, built, loaded}
	if [4]int{tr.Checked, tr.Replayed, tr.BaseRebuilds, tr.BaseLoads} != model || (tr.Stage1 == 0) != rep.Consistent {
		t.Fatalf("step %d: the run traced %+v on a run consistent %v, want counters %v", r.round, tr, rep.Consistent, model)
	}
	if rep.EncodeStats != nil {
		t.Fatalf("step %d: encode stats %+v, want none", r.round, rep.EncodeStats)
	}
	// A base file is a function of the deployment: every build writes the
	// same image.
	if name := fmt.Sprintf("base-%016x.scout", r.fp); built == 1 && r.good[name] != nil {
		img, err := os.ReadFile(filepath.Join(r.dir, name))
		if first, ok := r.baseImg[name]; err != nil || ok && !bytes.Equal(img, first) {
			t.Fatalf("step %d: the rebuilt %s differs from the first one written (%v)", r.round, name, err)
		}
		r.baseImg[name] = img
	}
}

// cold is the JSON of a one-shot serial analysis of st, or its error;
// after a step that leaves the fabric alone it is the previous step's. The
// analysis is handed the case's store (if any) and must leave every file
// as it found it; the baseline's must be inconsistent unless the case is
// clean, or every comparison is vacuous; the final state's analysis, if
// the state is new, is refAnalyze's.
func (r *coldRun) cold(t *testing.T, st scout.State) []byte {
	t.Helper()
	if want, ok := r.colds[r.round]; ok {
		return want
	}
	analyze := func() []byte {
		image := storeImage(r.dir)
		a := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 1, WarmStore: r.ws})
		rep, err := a.AnalyzeState(st)
		if !maps.Equal(image, storeImage(r.dir)) {
			t.Fatalf("step %d: a one-shot analysis handed the store changed it", r.round)
		}
		if err != nil {
			return []byte(fmt.Sprint("error: ", err))
		}
		if r.round == 0 && rep.Consistent != r.clean {
			t.Fatalf("the fabric analyzed consistent: %v, want %v", rep.Consistent, r.clean)
		}
		return marshalReport(t, rep)
	}
	want, fresh := r.colds[r.round-1], r.round == 0 || r.steps[r.round-1].touchesFabric()
	if fresh {
		want = analyze()
	}
	if r.round == len(r.steps) && fresh {
		if !bytes.HasPrefix(want, []byte("error: ")) && !bytes.Equal(want, marshalReport(t, refAnalyze(t, st))) {
			t.Error("the cold analysis of the final state differs from the serial reference pipeline")
		}
	}
	r.colds[r.round] = want
	return want
}

// storeImage is each store file's size and mtime, which a save or a load changes.
func storeImage(dir string) map[string]string {
	img := make(map[string]string)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			img[e.Name()] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
		}
	}
	return img
}

// asCodecV2 reframes a warm-store file image as codec version 2 framed
// it: version 2 in the header, under a fresh checksum. The decoder must
// refuse it before it reads the payload, whose layout version 2 differs in
// (a base file carried its rule lists), and the session cold-starts.
func asCodecV2(img []byte) []byte {
	body := append([]byte(nil), img[:len(img)-8]...)
	binary.LittleEndian.PutUint32(body[4:], 2)
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// sameRules reports whether two rule lists have equal content as
// rule.Equal compares rules: a nil provenance equals an empty one.
func sameRules(a, b []scout.Rule) bool {
	return slices.EqualFunc(a, b, scout.Rule.Equal)
}

// exactAllows counts the allow rules of l between concrete EPGs.
func exactAllows(l []scout.Rule) int {
	n := 0
	for _, r := range l {
		if r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst {
			n++
		}
	}
	return n
}

// modes names a case's session: TCAM checks with a warm store, or with
// none.
var modes = map[bool]string{false: "tcam", true: "nostore"}

// TestEveryEntryPointEqualsCold states the entry-points-over-one-core claim
// once: the tour analyzed through each entry point, on each batch an event
// queue cuts, and through a restart before every step, equals a serial cold
// analysis at every worker count, in a session with a warm store and in
// one with none.
func TestEveryEntryPointEqualsCold(t *testing.T) {
	t.Parallel()
	for _, noStore := range []bool{false, true} {
		colds := make(map[int][]byte)
		for _, e := range []entry{viaAnalyze, viaEpoch, viaEvents, viaState, viaRestart} {
			for i, workers := range slices.Compact([]int{1, 2, runtime.NumCPU(), 0, -3}) {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", e, modes[noStore], workers), func(t *testing.T) {
					c := coldCase{steps: tour, entry: e, workers: workers, noStore: noStore, colds: colds}
					if workers <= 0 {
						// 0 and -3 resolve to counts toured already: the
						// resolution is what is left to check.
						c.steps = tour[:6]
					}
					if e != viaAnalyze || i > 0 {
						// The first case of a mode fills colds alone; the
						// rest read a copy of it, in parallel.
						t.Parallel()
						c.colds = maps.Clone(colds)
					}
					equalsCold(t, c)
				})
			}
		}
	}
}

// sessionSeed is FuzzSession's input for a case: a header byte, and steps.
func sessionSeed(e entry, workers byte, steps ...step) []byte {
	data := []byte{byte(e) | workers<<2}
	for _, s := range steps {
		data = append(data, byte(s.op), s.x, s.y)
	}
	return data
}

// FuzzSession runs the fuzzer's bytes as a case on faultyFabric at seed 11
// with a warm store: the first byte picks the entry point and the worker
// count (1, 2, 3, 0 or -3), and every three after it a step, sixteen at
// most.
func FuzzSession(f *testing.F) {
	for _, seed := range [][]byte{
		sessionSeed(viaAnalyze, 1, tour[:8]...),
		// An epoch of an unchanged fabric replays every verdict.
		sessionSeed(viaEpoch, 1, step{opNone, 1, 1}),
		// New content builds and saves its own base, evicting the first's
		// files.
		sessionSeed(viaAnalyze, 1, step{opAddFilter, 0, 0}),
		// A verdict file seeds only the switches the cache holds nothing
		// for: switch 4, which the rollout misses, keeps its newer verdict.
		sessionSeed(viaAnalyze, 0, step{opAddFilter, 0, 0}, step{opRestart, 0, 0},
			step{opEvict, 3, 0}, step{opDetach, 0, 0}),
		sessionSeed(viaAnalyze, 2, step{opAddFilter, 0, 0}, step{opRestart, 0, 0},
			step{opSilent, 3, 0}, step{opDetach, 0, 0}),
		// A session's snapshot entry points check the state they are
		// handed.
		sessionSeed(viaState, 2, step{opSilent, 3, 0}),
		// Four filters added then detached, newest first: five deployments,
		// each evicted by the next one's save, so every return rebuilds.
		sessionSeed(viaAnalyze, 1, step{opAddFilter, 0, 0}, step{opAddFilter, 0, 1}, step{opAddFilter, 0, 2},
			step{opAddFilter, 0, 3}, step{opDetach, 0, 0}, step{opDetach, 0, 0}, step{opDetach, 0, 0}, step{opDetach, 0, 0}),
		// Every harm before a restart.
		sessionSeed(viaAnalyze, 2, step{opRestart, 0, harmCut}, step{opRestart, 1, harmSquat},
			step{opEvict, 0, 0}, step{opRestart, 0, harmLoseIt}, step{opRestart, 0, 8 + harmFlip},
			step{opRestart, 0, harmFewer}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		h := c.Byte()
		equalsCold(t, coldCase{entry: entry(h % 4), workers: []int{1, 2, 3, 0, -3}[h>>2%5],
			steps: drawSteps(c, min(max(len(data)-1, 0)/3, 16))})
	})
}

// TestMetamorphic holds Algorithm 1's answer to properties of its input
// rather than to a reference, on states a seed draws. Each side of a
// property is a case, and the property compares the cases' reports.
func TestMetamorphic(t *testing.T) {
	t.Parallel()
	const seed = 7
	pol, topology, err := scout.GenerateWorkload(workload.TestbedSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	filters := sortedIDs(pol.Filters)
	// analyze returns the report of a case analyzed once: pol deployed on
	// tp, then faults.
	analyze := func(t *testing.T, pol *scout.Policy, tp *scout.Topology, faults func(testing.TB, *scout.Fabric)) *scout.Report {
		t.Helper()
		return equalsCold(t, coldCase{fabric: func(t testing.TB) *scout.Fabric {
			f := deployed(t, pol, tp, scout.FabricOptions{Seed: seed})
			faults(t, f)
			return f
		}}).last
	}
	// The side most properties leave alone: drawn faults of missing rules
	// only — object faults, and exact allow rules removed — or of any kind.
	missingOnly, anyFault := drawn(seed, 6, opFault, opSilent), drawn(seed, 8, opFault, opSilent, opEvict, opCorrupt)
	missing := func(t testing.TB, f *scout.Fabric) { mutate(t, f, missingOnly) }
	faulty := func(t testing.TB, f *scout.Fabric) { mutate(t, f, anyFault) }
	withMissing, withAll := analyze(t, pol, topology, missing), analyze(t, pol, topology, faulty)
	same := func(t *testing.T, a, b *scout.Report, change string) {
		t.Helper()
		if !bytes.Equal(marshalReport(t, a), marshalReport(t, b)) {
			t.Errorf("%s changed the report: hypotheses %v and %v", change, a.Hypothesis, b.Hypothesis)
		}
	}

	// Ties go to the first ref in order, so only a relabeling that keeps
	// the order maps one report onto the other. Corruption flips bits of
	// IDs, which no relabeling maps, so the faults are missing rules. The
	// second map puts every ID past the BDD's 16 bits: the check compares
	// IDs, so it takes them.
	t.Run("relabeling", func(t *testing.T) {
		for _, m := range []func(scout.ObjectID) scout.ObjectID{
			func(id scout.ObjectID) scout.ObjectID { return 2*id + 1 },
			func(id scout.ObjectID) scout.ObjectID { return id + 1<<16 },
		} {
			q := relabeled(pol, m)
			qt := scout.TopologyFromPolicy(q)
			for _, sw := range topology.Switches() {
				qt.AddSwitch(sw)
			}
			b := analyze(t, q, qt, missing)
			if !bytes.Equal(relabelJSON(t, marshalReport(t, withMissing), m), relabelJSON(t, marshalReport(t, b), nil)) {
				t.Errorf("the relabeled fabric's report is not the report relabeled: hypotheses %v and %v", withMissing.Hypothesis, b.Hypothesis)
			}
		}
	})

	// Every priority band of a testbed TCAM holds one action, so an order
	// within each band is a permutation of same-action rules.
	t.Run("install-order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		same(t, withAll, analyze(t, pol, topology, func(t testing.TB, f *scout.Fabric) {
			faulty(t, f)
			for _, sw := range topology.Switches() {
				s, err := f.Switch(sw)
				if err != nil {
					t.Fatal(err)
				}
				rules := slices.Clone(s.TCAM().Rules())
				for _, r := range rules {
					s.TCAM().Remove(r.Key())
				}
				rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
				if s.TCAM().InstallAll(rules) != len(rules) || s.TCAM().Len() != len(rules) {
					t.Fatalf("switch %d holds %d of its %d rules after the reinstall", sw, s.TCAM().Len(), len(rules))
				}
			}
		}), "reinstalling every switch's rules in another order")
	})

	t.Run("switch-order", func(t *testing.T) {
		sws, epgs := topology.Switches(), sortedIDs(pol.EPGs)
		slices.Reverse(sws)
		slices.Reverse(epgs)
		reversed := topo.New(sws...)
		for _, epg := range epgs {
			hosts := slices.Clone(topology.SwitchesHosting(epg)) // the topology's own list
			slices.Reverse(hosts)
			for _, sw := range hosts {
				reversed.Attach(epg, sw)
			}
		}
		same(t, withAll, analyze(t, pol, reversed, faulty), "registering the switches and their EPGs in reverse")
	})

	t.Run("consistent-switch", func(t *testing.T) {
		grown, extra := scout.TopologyFromPolicy(pol), slices.Max(topology.Switches())+1
		for _, sw := range append(topology.Switches(), extra) {
			grown.AddSwitch(sw)
		}
		b := analyze(t, pol, grown, missing)
		i := slices.IndexFunc(b.Switches, func(sr scout.SwitchReport) bool { return sr.Switch == extra })
		if i < 0 || !reflect.DeepEqual(b.Switches[i], scout.SwitchReport{Switch: extra, Equivalent: true}) {
			t.Fatalf("switch %d, which hosts no endpoint, has no equivalent report of its own", extra)
		}
		b.Switches = slices.Delete(b.Switches, i, i+1)
		same(t, withMissing, b, "a switch that hosts no endpoint")
	})

	t.Run("growing-fault", func(t *testing.T) {
		grown := scout.FilterRef(filters[1])
		faults := func(fraction float64) func(testing.TB, *scout.Fabric) {
			return func(t testing.TB, f *scout.Fabric) {
				mutate(t, f, drawn(seed, 4, opEvict, opSilent))
				if _, err := f.InjectObjectFault(scout.FilterRef(filters[0]), 1); err != nil {
					t.Fatal(err)
				}
				if n, err := f.InjectObjectFault(grown, fraction); err != nil || n == 0 {
					t.Fatalf("the fault on %s removed %d rules (%v)", grown, n, err)
				}
			}
		}
		half, full := analyze(t, pol, topology, faults(0.5)), analyze(t, pol, topology, faults(1))
		if !slices.Contains(full.Hypothesis, grown) {
			t.Errorf("%s failed in full is not in the hypothesis %v (at half: %v)", grown, full.Hypothesis, half.Hypothesis)
		}
		for _, e := range full.Controller.Unexplained {
			if !slices.Contains(half.Controller.Unexplained, e) {
				t.Errorf("observation %v is unexplained once %s fails in full, and was explained at half", e, grown)
			}
		}
	})

	t.Run("binding-order", func(t *testing.T) {
		t.Skip("ROADMAP 1(c): Compile keeps the first binding's provenance in the map and the sort's in the list")
		reversed := pol.Clone()
		slices.Reverse(reversed.Bindings)
		same(t, withAll, analyze(t, reversed, topology, faulty), "binding the contracts in reverse")
	})
}

// relabeled returns p with every policy object's ID mapped through m.
func relabeled(p *scout.Policy, m func(scout.ObjectID) scout.ObjectID) *scout.Policy {
	q := scout.NewPolicy(p.Name)
	for _, v := range p.VRFs {
		q.AddVRF(scout.VRF{ID: m(v.ID), Name: v.Name})
	}
	for _, e := range p.EPGs {
		q.AddEPG(scout.EPG{ID: m(e.ID), Name: e.Name, VRF: m(e.VRF)})
	}
	for _, ep := range p.Endpoints {
		q.AddEndpoint(scout.Endpoint{ID: m(ep.ID), Name: ep.Name, EPG: m(ep.EPG), Switch: ep.Switch})
	}
	for _, f := range p.Filters {
		q.AddFilter(scout.Filter{ID: m(f.ID), Name: f.Name, Entries: f.Entries})
	}
	for _, c := range p.Contracts {
		filters := make([]scout.ObjectID, len(c.Filters))
		for i, id := range c.Filters {
			filters[i] = m(id)
		}
		q.AddContract(scout.Contract{ID: m(c.ID), Name: c.Name, Filters: filters})
	}
	for _, b := range p.Bindings {
		q.Bind(m(b.From), m(b.To), m(b.Contract))
	}
	return q
}

// relabelJSON re-encodes report JSON with the ID of every policy object,
// in a ref or a rule match, mapped through m (nil keeps it).
func relabelJSON(t *testing.T, data []byte, m func(scout.ObjectID) scout.ObjectID) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	id := func(n any) any {
		id, err := strconv.ParseUint(string(n.(json.Number)), 10, 32)
		if err != nil || m == nil {
			return n
		}
		return m(scout.ObjectID(id))
	}
	switchKind := json.Number(strconv.Itoa(int(object.KindSwitch)))
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case []any:
			for _, e := range v {
				walk(e)
			}
		case map[string]any:
			if kind, ok := v["kind"]; ok && len(v) == 2 && kind != switchKind {
				v["id"] = id(v["id"])
			}
			for field, wildcard := range map[string]string{"vrf": "wildcardVRF", "srcEPG": "wildcardSrc", "dstEPG": "wildcardDst"} {
				if n, ok := v[field]; ok && v[wildcard] != true {
					v[field] = id(n)
				}
			}
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
