package scout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"scout"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
)

// entry is the way a harness case hands each state to its session.
type entry int

const (
	viaAnalyze entry = iota // Session.Analyze
	viaEpoch                // Session.AnalyzeEpoch of a fresh collector snapshot
	viaEvents               // Session.ApplyEvents of the fabric's events, cut three switches at a time
	viaState                // Session.AnalyzeState of the case's state
	viaRestart              // Session.Analyze of a session reopened on the case's warm store
)

func (e entry) String() string {
	return [...]string{"Analyze", "AnalyzeEpoch", "ApplyEvents", "AnalyzeState", "Restart"}[e]
}

// coldCase is one input of equalsCold: a faulty fabric, a mutation script,
// the entry point every run goes through, and the session's options.
type coldCase struct {
	fabric func(testing.TB) *scout.Fabric // nil is faultyFabric at seed 11
	// state is what viaState analyzes; nil is fabricState.
	state func(testing.TB, *scout.Fabric) scout.State
	// steps run one before each analysis after the baseline; nil is churn.
	steps   []step
	entry   entry
	workers int
	probes  bool
	// overCap are the switches whose report is over the session's
	// 4,096-rule cap on every run, so no run caches their verdicts.
	overCap []scout.ObjectID
	// colds keeps each step's cold report. Cases sharing one must run the
	// same fabric, script and mode, so their states are equal step by step.
	colds map[int][]byte
}

// seeded is a case's fabric: faultyFabric at seed.
func seeded(seed int64) func(testing.TB) *scout.Fabric {
	return func(t testing.TB) *scout.Fabric { return faultyFabric(t, seed) }
}

// step mutates a case's fabric, or its session, before a run. A nil step
// changes nothing.
type step func(t *testing.T, r *coldRun)

// baselineOnly is the script of a case analyzed once.
var baselineOnly = []step{}

// churn is the default script: each kind of change a session must tell
// apart from no change.
var churn = []step{
	nil, // every verdict replays
	func(t *testing.T, r *coldRun) {
		// A rule off the second switch and one off the first, which the
		// fault mix broke, and more off three others: a batch of events
		// names more than one switch.
		sws := switchesOf(r.f)
		removeOneRule(t, r.f, sws[1])
		removeOneRule(t, r.f, sws[0])
		for i, sw := range sws[2:5] {
			if _, err := r.f.EvictTCAM(sw, 1+i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.f.CorruptTCAM(sws[4], 1, tcam.CorruptSrcEPG); err != nil {
			t.Fatal(err)
		}
	},
	editPolicy, // new L lists: a new base
}

// editPolicy rolls a new filter out to the first binding's contract.
func editPolicy(t *testing.T, r *coldRun) { rollout(t, r.f) }

// redeploy recompiles the unchanged policy.
func redeploy(t *testing.T, r *coldRun) {
	old := r.f.Deployment()
	if err := r.f.Deploy(); err != nil || r.f.Deployment() == old {
		t.Fatalf("Deploy kept the deployment's address (%v); the step is vacuous", err)
	}
}

// randomChurn is a script of n seeded steps, each an eviction, a
// corruption, a partial object fault, a redeploy or nothing.
func randomChurn(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]step, n)
	for i := range steps {
		op, pick, k := rng.Intn(5), rng.Int(), 1+rng.Intn(2)
		steps[i] = func(t *testing.T, r *coldRun) {
			sws, ids := switchesOf(r.f), deployedIDs(r.f, object.KindFilter)
			sw := sws[pick%len(sws)]
			var err error
			switch op {
			case 0:
				_, err = r.f.EvictTCAM(sw, k)
			case 1:
				_, err = r.f.CorruptTCAM(sw, k, tcam.CorruptionField(1+pick%4))
			case 2:
				_, err = r.f.InjectObjectFault(scout.FilterRef(ids[pick%len(ids)]), 0.3)
			case 3:
				err = r.f.Deploy()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return steps
}

// coldRun is a case in progress: its fabric and session, and what the
// session must hold after the previous run.
type coldRun struct {
	coldCase
	f     *scout.Fabric
	sess  *scout.Session
	stats scout.SessionStats // the session's after the previous run
	last  *scout.Report      // the previous step's report
	round int

	dir    string // viaRestart's warm store
	epochs *scout.Collector
	events *faultlog.Cursor
	queue  *scout.EventQueue

	// lists are each switch's L and T lists at the previous run. aliased
	// says ApplyEvents carries forward the T lists of the switches a batch
	// does not name, and dropped are the switches a step invalidated.
	lists   map[scout.ObjectID][2][]scout.Rule
	aliased bool
	dropped map[scout.ObjectID]bool

	// based is the deployment the session's base is for; a warm store holds
	// the base and verdicts of every deployment in stored.
	based  *scout.Deployment
	stored []*scout.Deployment

	// partials counts the ApplyEvents runs that had a previous run to alias
	// from, and named the switches their batches named.
	partials, named int
}

// equalsCold runs c: a baseline, then each step and one analysis through
// c's entry point. After every run it holds the session to what the script
// says the run did:
//   - Checked + Replayed grew by the switch count, and Checked by the
//     switches whose L or T list changed since the previous run (every
//     switch, after a restart onto a deployment new to the store), those
//     the step invalidated, and those over the rule cap, which OverCap counts;
//   - in probe mode ProbePacketsBatched grew by exactly those switches'
//     probes, and no base was built or loaded;
//   - in TCAM mode BaseRebuilds moved only when the deployment's content
//     did, and a restart loaded the base its store holds (BaseLoads 1).
//
// After every step the report's JSON is a cold analysis's of the same
// state. equalsCold returns the run for the caller's own checks.
func equalsCold(t *testing.T, c coldCase) *coldRun {
	t.Helper()
	r := &coldRun{coldCase: c, lists: make(map[scout.ObjectID][2][]scout.Rule), dropped: make(map[scout.ObjectID]bool)}
	if r.fabric == nil {
		r.fabric = seeded(11)
	}
	if r.state == nil {
		r.state = func(_ testing.TB, f *scout.Fabric) scout.State { return fabricState(f) }
	}
	if r.steps == nil {
		r.steps = churn
	}
	if r.colds == nil {
		r.colds = make(map[int][]byte)
	}
	r.dir = t.TempDir()
	r.f = r.fabric(t)
	r.epochs, r.events = scout.NewCollector(r.f, 2), r.f.EventLog().TailCursor()
	r.queue = scout.NewEventQueue(scout.EventQueueOptions{Cap: 64, BatchSize: 3})
	r.sess = newSession(t, r.f, scout.AnalyzerOptions{Workers: r.workers, UseProbes: r.probes})
	for r.round = 0; r.round <= len(r.steps); r.round++ {
		if r.round > 0 && r.steps[r.round-1] != nil {
			r.steps[r.round-1](t, r)
		}
		st := r.state(t, r.f)
		r.last = r.analyze(t, st)
		if !bytes.Equal(marshalReport(t, r.last), r.cold(t, st)) {
			t.Fatalf("step %d: the %s report differs from a cold analysis of the same state", r.round, r.entry)
		}
	}
	if err := r.sess.Close(); err != nil {
		t.Error(err)
	}
	return r
}

// restart closes the case's session and opens a new one on its warm store,
// which is all the new session holds.
func (r *coldRun) restart(t *testing.T) {
	t.Helper()
	if err := r.sess.Close(); err != nil {
		t.Fatal(err)
	}
	r.sess = newSession(t, r.f, scout.AnalyzerOptions{Workers: r.workers, UseProbes: r.probes, WarmStore: warmStore(t, r.dir)})
	r.stats, r.based = scout.SessionStats{}, nil
}

// invalidate drops switches' verdicts through Session.Invalidate, every
// switch's when none are named; the next run must re-check them.
func (r *coldRun) invalidate(switches ...scout.ObjectID) {
	r.sess.Invalidate(switches...)
	if len(switches) == 0 {
		switches = switchesOf(r.f)
	}
	for _, sw := range switches {
		r.dropped[sw] = true
	}
	r.aliased = false
}

// analyze hands st to the session through the case's entry point and
// returns the step's report. ApplyEvents runs on each batch the queue cuts
// from the step's events, then on an empty batch once the queue is drained.
func (r *coldRun) analyze(t *testing.T, st scout.State) *scout.Report {
	t.Helper()
	switch r.entry {
	case viaRestart:
		r.restart(t)
		fallthrough
	case viaAnalyze:
		return r.run(t, st, r.sess.Analyze)
	case viaEpoch:
		e := r.epochs.Snapshot()
		return r.run(t, st, func() (*scout.Report, error) { return r.sess.AnalyzeEpoch(e) })
	case viaState:
		return r.run(t, st, func() (*scout.Report, error) { return r.sess.AnalyzeState(st) })
	}
	for _, ev := range r.events.Drain() {
		if r.queue.Push(ev) {
			r.apply(t, r.queue.Cut(r.f.Now()))
		}
	}
	for r.queue.Len() > 0 {
		r.apply(t, r.queue.Cut(r.f.Now()))
	}
	return r.apply(t, scout.EventBatch{})
}

// apply runs ApplyEvents on one batch. Once there is a previous run to
// alias from, it analyzes the fabric's state but for the T list of every
// switch the batch does not name, which is the previous run's.
func (r *coldRun) apply(t *testing.T, batch scout.EventBatch) *scout.Report {
	t.Helper()
	st := fabricState(r.f)
	if r.aliased {
		r.partials++
		r.named += len(batch.Switches)
		for sw := range st.TCAM {
			if !slices.Contains(batch.Switches, sw) {
				st.TCAM[sw] = r.lists[sw][1]
			}
		}
	}
	r.aliased = true
	return r.run(t, st, func() (*scout.Report, error) { return r.sess.ApplyEvents(batch) })
}

// run calls analyze, which analyzes st, and checks the session's counters.
func (r *coldRun) run(t *testing.T, st scout.State, analyze func() (*scout.Report, error)) *scout.Report {
	t.Helper()
	rep := mustReport(t, analyze)
	before, now := r.stats, r.sess.Stats()
	r.stats = now

	stored := slices.ContainsFunc(r.stored, func(d *scout.Deployment) bool { return sameDeployment(d, st.Deployment) })
	if !stored {
		r.stored = append(r.stored, st.Deployment)
	}
	dirty, probes := 0, 0
	for sw, tl := range st.TCAM {
		l := st.Deployment.RulesFor(sw)
		prev, seen := r.lists[sw]
		if !seen || r.entry == viaRestart && !stored || r.dropped[sw] || slices.Contains(r.overCap, sw) ||
			!sameRules(prev[0], l) || !sameRules(prev[1], tl) {
			dirty++
			probes += probesOf(l)
		}
		r.lists[sw] = [2][]scout.Rule{l, tl}
	}
	clear(r.dropped)
	if c, p := now.Checked-before.Checked, now.Replayed-before.Replayed; c != dirty || p != len(st.TCAM)-dirty {
		t.Errorf("step %d: checked %d and replayed %d switches, want %d of %d checked", r.round, c, p, dirty, len(st.TCAM))
	}
	if got := now.OverCap - before.OverCap; got != len(r.overCap) {
		t.Errorf("step %d: %d reports over the cap, want %d", r.round, got, len(r.overCap))
	}

	built, loaded := 0, 0
	if r.probes {
		if got := now.ProbePacketsBatched - before.ProbePacketsBatched; got != probes {
			t.Errorf("step %d: %d probe packets, want %d", r.round, got, probes)
		}
	} else if !sameDeployment(r.based, st.Deployment) {
		r.based = st.Deployment
		if r.entry == viaRestart && stored {
			loaded = 1
		} else {
			built = 1
		}
	}
	if b, l := now.BaseRebuilds-before.BaseRebuilds, now.BaseLoads-before.BaseLoads; b != built || l != loaded || (rep.EncodeStats == nil) != r.probes {
		t.Errorf("step %d: %d bases built and %d loaded, want %d and %d (encode stats: %v)", r.round, b, l, built, loaded, rep.EncodeStats != nil)
	}

	return rep
}

// cold is the JSON of a one-shot serial analysis of st, or in probe mode of
// the fabric; after a nil step it is the previous step's. It checks the
// analysis too: the baseline's is inconsistent, or every comparison is
// vacuous, and the final state's TCAM analysis is refAnalyze's.
func (r *coldRun) cold(t *testing.T, st scout.State) []byte {
	t.Helper()
	if want, ok := r.colds[r.round]; ok {
		return want
	}
	analyze := func(probes bool) []byte {
		a := scout.NewAnalyzer(scout.AnalyzerOptions{Workers: 1, UseProbes: probes})
		rep, err := a.AnalyzeState(st)
		if probes {
			rep, err = a.Analyze(r.f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.round == 0 && rep.Consistent {
			t.Fatal("the faulty fabric analyzed consistent; the comparison is vacuous")
		}
		return marshalReport(t, rep)
	}
	want := r.colds[r.round-1]
	if r.round == 0 || r.steps[r.round-1] != nil {
		want = analyze(r.probes)
	}
	if r.round == len(r.steps) {
		tcam := want
		if r.probes {
			tcam = analyze(false)
		}
		if !bytes.Equal(tcam, marshalReport(t, refAnalyze(t, st))) {
			t.Error("the cold analysis of the final state differs from the serial reference pipeline")
		}
	}
	r.colds[r.round] = want
	return want
}

// sameRules reports whether two rule lists have equal content.
func sameRules(a, b []scout.Rule) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || reflect.DeepEqual(a, b))
}

// sameDeployment reports whether two deployments compile to equal lists.
func sameDeployment(a, b *scout.Deployment) bool {
	return a != nil && (a == b || reflect.DeepEqual(a.BySwitch, b.BySwitch))
}

// probesOf counts the probes a round sends a switch with logical list l:
// one per allow rule between concrete EPGs.
func probesOf(l []scout.Rule) int {
	n := 0
	for _, r := range l {
		if r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst {
			n++
		}
	}
	return n
}

// modes names the observation sources.
var modes = map[bool]string{false: "tcam", true: "probes"}

// TestEveryEntryPointEqualsCold states the four-entry-points-over-one-core
// claim once: churn analyzed through each entry point, and through a
// restart before every step, equals a serial cold analysis at every worker
// count, in TCAM and probe mode. Probe mode refuses the snapshot entry
// points, which hand it no dataplane.
func TestEveryEntryPointEqualsCold(t *testing.T) {
	t.Parallel()
	for _, probes := range []bool{false, true} {
		colds := make(map[int][]byte)
		for _, e := range []entry{viaAnalyze, viaEpoch, viaEvents, viaState, viaRestart} {
			if probes && (e == viaEpoch || e == viaState) {
				continue
			}
			for i, workers := range slices.Compact([]int{1, 2, runtime.NumCPU(), 0, -3}) {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", e, modes[probes], workers), func(t *testing.T) {
					c := coldCase{entry: e, workers: workers, probes: probes, colds: colds}
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

// TestMetamorphic holds Algorithm 1's answer to properties of its input
// rather than to a reference. Each side of a property is a harness case,
// and the property compares the cases' reports.
func TestMetamorphic(t *testing.T) {
	t.Parallel()
	const seed = 7
	pol, topology, err := scout.GenerateWorkload(scout.TestbedWorkloadSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	filters := sortedIDs(pol.Filters)
	// analyze returns the report of a baseline-only case: pol deployed on
	// tp, then faults.
	analyze := func(t *testing.T, pol *scout.Policy, tp *scout.Topology, faults func(testing.TB, *scout.Fabric), probes bool) *scout.Report {
		t.Helper()
		return equalsCold(t, coldCase{fabric: func(t testing.TB) *scout.Fabric {
			f := deployed(t, pol, tp, scout.FabricOptions{Seed: seed})
			faults(t, f)
			return f
		}, steps: baselineOnly, probes: probes}).last
	}
	// The side most properties leave alone: faults of missing rules only,
	// or with injectFaults' corruption too.
	missing := func(t testing.TB, f *scout.Fabric) { missingFaults(t, f, 0.5) }
	withMissing, withAll := analyze(t, pol, topology, missing, false), analyze(t, pol, topology, injectFaults, false)
	same := func(t *testing.T, a, b *scout.Report, change string) {
		t.Helper()
		if !bytes.Equal(marshalReport(t, a), marshalReport(t, b)) {
			t.Errorf("%s changed the report: hypotheses %v and %v", change, a.Hypothesis, b.Hypothesis)
		}
	}

	// Ties go to the first ref in order, so only a relabeling that keeps
	// the order maps one report onto the other. Corruption flips bits of
	// IDs, which no relabeling maps, so the faults are missing rules.
	t.Run("relabeling", func(t *testing.T) {
		m := func(id scout.ObjectID) scout.ObjectID { return 2*id + 1 }
		q := relabeled(pol, m)
		qt := scout.TopologyFromPolicy(q)
		for _, sw := range topology.Switches() {
			qt.AddSwitch(sw)
		}
		b := analyze(t, q, qt, missing, false)
		if !bytes.Equal(relabelJSON(t, marshalReport(t, withMissing), m), relabelJSON(t, marshalReport(t, b), nil)) {
			t.Errorf("the relabeled fabric's report is not the report relabeled: hypotheses %v and %v", withMissing.Hypothesis, b.Hypothesis)
		}
	})

	// Every priority band of a testbed TCAM holds one action, so an order
	// within each band is a permutation of same-action rules.
	t.Run("install-order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		same(t, withAll, analyze(t, pol, topology, func(t testing.TB, f *scout.Fabric) {
			injectFaults(t, f)
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
		}, false), "reinstalling every switch's rules in another order")
	})

	t.Run("switch-order", func(t *testing.T) {
		sws, epgs := topology.Switches(), sortedIDs(pol.EPGs)
		slices.Reverse(sws)
		slices.Reverse(epgs)
		reversed := topo.New(sws...)
		for _, epg := range epgs {
			hosts := topology.SwitchesHosting(epg)
			slices.Reverse(hosts)
			for _, sw := range hosts {
				reversed.Attach(epg, sw)
			}
		}
		same(t, withAll, analyze(t, pol, reversed, injectFaults, false), "registering the switches and their EPGs in reverse")
	})

	t.Run("consistent-switch", func(t *testing.T) {
		grown, extra := scout.TopologyFromPolicy(pol), slices.Max(topology.Switches())+1
		for _, sw := range append(topology.Switches(), extra) {
			grown.AddSwitch(sw)
		}
		b := analyze(t, pol, grown, missing, false)
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
				if _, err := f.InjectObjectFault(scout.FilterRef(filters[0]), 1); err != nil {
					t.Fatal(err)
				}
				if _, err := f.EvictTCAM(topology.Switches()[0], 3); err != nil {
					t.Fatal(err)
				}
				if n, err := f.InjectObjectFault(grown, fraction); err != nil || n == 0 {
					t.Fatalf("the fault on %s removed %d rules (%v)", grown, n, err)
				}
			}
		}
		half, full := analyze(t, pol, topology, faults(0.5), false), analyze(t, pol, topology, faults(1), false)
		if !slices.Contains(full.Hypothesis, grown) {
			t.Errorf("%s failed in full is not in the hypothesis %v (at half: %v)", grown, full.Hypothesis, half.Hypothesis)
		}
		for _, e := range full.Controller.Unexplained {
			if !slices.Contains(half.Controller.Unexplained, e) {
				t.Errorf("observation %v is unexplained once %s fails in full, and was explained at half", e, grown)
			}
		}
	})

	t.Run("probes-agree", func(t *testing.T) {
		b := analyze(t, pol, topology, missing, true)
		for i, sr := range withMissing.Switches {
			if slices.ContainsFunc(sr.MissingRules, func(r scout.Rule) bool { return probesOf([]scout.Rule{r}) == 0 }) {
				t.Fatalf("switch %d misses a rule no probe covers; the case is vacuous", sr.Switch)
			}
			// A check lists what it misses in its own order, probing in the
			// logical list's.
			p := b.Switches[i]
			got, want := slices.Clone(p.MissingRules), slices.Clone(sr.MissingRules)
			rule.Sort(got)
			rule.Sort(want)
			if p.Switch != sr.Switch || p.Equivalent != sr.Equivalent || !reflect.DeepEqual(got, want) {
				t.Errorf("switch %d: probes and TCAM disagree on its verdict or its missing rules", sr.Switch)
			}
		}
		if !reflect.DeepEqual(withMissing.Hypothesis, b.Hypothesis) || !reflect.DeepEqual(withMissing.RootCauses, b.RootCauses) {
			t.Errorf("probes and TCAM disagree: hypotheses %v and %v", withMissing.Hypothesis, b.Hypothesis)
		}
	})

	t.Run("binding-order", func(t *testing.T) {
		t.Skip("ROADMAP 1(c): Compile keeps the first binding's provenance in the map and the sort's in the list")
		reversed := pol.Clone()
		slices.Reverse(reversed.Bindings)
		same(t, withAll, analyze(t, reversed, topology, injectFaults, false), "binding the contracts in reverse")
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
