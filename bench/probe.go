package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"scout"
	"scout/internal/bdd"
	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/faultlog"
	"scout/internal/localize"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
	"scout/internal/stream"
	"scout/internal/workload"
)

// timeMS runs fn reps times and returns the median wall time in ms.
func timeMS(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := nowNS()
		fn()
		xs[i] = ms(nowNS() - t0)
	}
	return median(xs)
}

// probeLayers times each internal layer's exported calls on the
// workload's set-up state, from outside, serially (so the counts are
// those of Workers: 1 and repeat exactly). It is the same code on every
// workload: what differs is the state it runs on. ref is a cold report
// of that state.
func probeLayers(r *runner, ref *scout.Report, m metrics) error {
	e := r.env
	f, dep := e.fabric, e.dep

	// workload, compile, fabric: what set-up pays before any analysis.
	var pol *scout.Policy
	var topo *scout.Topology
	var err error
	m.set("workload.generate_ms", timeMS(3, func() {
		pol, topo, err = workload.Generate(e.spec, structureSeed)
	}), "ms", 3)
	if err != nil {
		return err
	}
	var compiled *compile.Deployment
	m.set("compile.compile_ms", timeMS(3, func() { compiled, err = compile.Compile(pol, topo) }), "ms", 3)
	if err != nil {
		return err
	}
	rules := 0
	for _, rs := range compiled.BySwitch {
		rules += len(rs)
	}
	m.set("compile.rules", float64(rules), "count", 0)
	m.set("fabric.deploy_ms", timeMS(3, func() {
		var nf *scout.Fabric
		if nf, err = scout.NewFabric(pol, topo, scout.FabricOptions{Seed: e.seed, TCAMCapacity: 1 << 17}); err == nil {
			err = nf.Deploy()
		}
	}), "ms", 3)
	if err != nil {
		return err
	}

	// tcam, collect.
	m.set("tcam.rules_copy_ms", timeMS(5, func() {
		for _, sw := range e.switches {
			s, _ := f.Switch(sw)
			s.TCAM().Rules()
		}
	}), "ms", 5)
	col := collect.New(f, 4)
	var older, newer *collect.Epoch
	m.set("collect.snapshot_ms", timeMS(5, func() { older, newer = newer, col.Snapshot() }), "ms", 5)
	m.set("collect.rules_read", float64(newer.RuleCount()), "count", 0)
	m.set("collect.diff_ms", timeMS(5, func() { collect.DirtySwitches(older, newer) }), "ms", 5)
	pair := e.switches[:2]
	m.set("collect.partial_ms", timeMS(5, func() { _, err = col.SnapshotSwitches(pair) }), "ms", 5)
	if err != nil {
		return err
	}

	// stream: the storm's burst shape, 16 events over 2 switches.
	const bursts = 256
	q := stream.New(stream.Options{Cap: 64, BatchSize: 8})
	var pushNS, cutNS int64
	seq := 0
	for b := 0; b < bursts; b++ {
		t0 := nowNS()
		for i := 0; i < 2*2*windowRules; i++ {
			seq++
			q.Push(faultlog.Event{Seq: seq, Time: f.Now(), Kind: faultlog.EventTCAMChange, Switch: pair[i%2]})
		}
		t1 := nowNS()
		q.Cut(f.Now())
		pushNS, cutNS = pushNS+t1-t0, cutNS+nowNS()-t1
	}
	qs := q.Stats()
	m.set("stream.push_ns", float64(pushNS)/float64(qs.Pushed), "ns", qs.Pushed)
	m.set("stream.cut_ns", float64(cutNS)/bursts, "ns", bursts)
	m.set("stream.coalesce_ratio", float64(qs.Pushed)/float64(qs.BatchedSwitches), "ratio", 0)

	// equiv: fingerprint, base build, clean and dirty fork checks, compact.
	tcams := newer.TCAM
	fpMS := timeMS(5, func() {
		for _, sw := range e.switches {
			equiv.Fingerprint(tcams[sw])
		}
	})
	m.set("equiv.fingerprint_ms", fpMS, "ms", 5)
	m.set("equiv.fingerprint_ns_per_rule", fpMS*1e6/float64(newer.RuleCount()), "ns", 5)
	var base *equiv.Base
	m.set("equiv.base_build_ms", timeMS(1, func() { base = buildBase(dep) }), "ms", 1)
	m.set("equiv.base_nodes", float64(base.Size()), "count", 0)
	m.set("equiv.base_matches", float64(base.NumMatches()), "count", 0)
	m.set("equiv.base_semantics", float64(base.NumSemantics()), "count", 0)

	checker := base.NewChecker()
	clean := make([]float64, len(e.switches))
	dirty := make([]float64, len(e.switches))
	for i, sw := range e.switches {
		logical := dep.RulesFor(sw)
		t0 := nowNS()
		rep, err := checker.Check(logical, logical)
		clean[i] = ms(nowNS() - t0)
		if err != nil || !rep.Equivalent {
			return fmt.Errorf("probe: clean check of switch %d: equivalent=%v err=%v", sw, rep != nil && rep.Equivalent, err)
		}
		deployed := withoutRules(logical, e.windows[i][0])
		t0 = nowNS()
		rep, err = checker.Check(logical, deployed)
		dirty[i] = ms(nowNS() - t0)
		if err != nil || rep.Equivalent {
			return fmt.Errorf("probe: dirty check of switch %d found nothing missing (err=%v)", sw, err)
		}
	}
	cs := checker.Stats()
	m.set("equiv.check_clean_ms", median(clean), "ms", len(clean))
	m.set("equiv.check_dirty_ms", median(dirty), "ms", len(dirty))
	m.set("equiv.fold_hits", float64(cs.FoldBaseHits+cs.FoldLocalHits), "count", 0)
	m.set("equiv.fold_misses", float64(cs.FoldMisses), "count", 0)
	m.set("equiv.encode_hits", float64(cs.BaseHits+cs.LocalHits), "count", 0)
	m.set("equiv.encode_misses", float64(cs.Misses), "count", 0)
	m.set("equiv.delta_nodes_per_check", float64(checker.DeltaSize())/float64(len(dirty)), "count", len(dirty))
	var compacted bdd.CompactStats
	m.set("equiv.compact_ms", timeMS(1, func() { compacted, _ = checker.Compact() }), "ms", 1)
	m.set("equiv.compact_retained_ratio", ratio(float64(compacted.Retained), float64(compacted.Retained+compacted.Dropped)), "ratio", 0)

	probeBDD(dep, base, ref, m)

	// risk, localize, correlate: the fold stages on the reference verdicts.
	opts := risk.ControllerModelOptions{IncludeSwitchRisk: true}
	var pristine *risk.Model
	m.set("risk.ctrl_build_ms", timeMS(1, func() { pristine = risk.BuildControllerModelParallel(dep, opts, 1) }), "ms", 1)
	m.set("risk.ctrl_elements", float64(pristine.NumElements()), "count", 0)
	m.set("risk.ctrl_edges", float64(pristine.NumEdges()), "count", 0)
	var broken []scout.SwitchReport
	for _, sr := range ref.Switches {
		if !sr.Equivalent {
			broken = append(broken, sr)
		}
	}
	if len(broken) == 0 {
		return fmt.Errorf("probe: the faulty fabric has no inconsistent switch")
	}
	m.set("risk.switch_build_ms", timeMS(3, func() {
		for _, sr := range broken {
			risk.BuildAnnotatedSwitchModel(dep, sr.Switch, sr.MissingRules)
		}
	}), "ms", 3)
	augment := func() *risk.Overlay {
		o := risk.NewOverlay(pristine)
		for _, sr := range broken {
			risk.AugmentControllerModelPatch(o, sr.Switch, sr.MissingRules, dep.Provenance).Apply(o)
		}
		return o
	}
	var overlay *risk.Overlay
	m.set("risk.overlay_augment_ms", timeMS(5, func() { overlay = augment() }), "ms", 5)
	m.set("risk.failed_marks", float64(overlay.NumFailedEdges()), "count", 0)

	oracle := localize.ChangeLogOracle{Log: f.ChangeLog(), Since: f.Now().Add(-24 * time.Hour)}
	before := localize.StatsSnapshot()
	var res *localize.Result
	m.set("localize.scout_compile_ms", timeMS(1, func() { res = localize.Scout(overlay, oracle) }), "ms", 1)
	fresh := []*risk.Overlay{augment(), augment(), augment(), augment(), augment()}
	m.set("localize.scout_reuse_ms", timeMS(len(fresh), func() {
		res = localize.Scout(fresh[0], oracle)
		fresh = fresh[1:]
	}), "ms", len(fresh))
	ls := localize.StatsSnapshot().Delta(before)
	m.set("localize.plan_compiles", float64(ls.PlanCompiles), "count", 0)
	m.set("localize.plan_reuses", float64(ls.PlanReuses), "count", 0)
	m.set("localize.lazy_evals", float64(ls.LazyEvals), "count", 0)
	m.set("localize.hypothesis_size", float64(len(res.Hypothesis)), "count", 0)
	if !slices.Equal(res.Hypothesis, ref.Hypothesis) {
		return fmt.Errorf("probe: staged hypothesis %v differs from the report's %v", res.Hypothesis, ref.Hypothesis)
	}
	engine := correlate.NewEngine(nil)
	var causes *correlate.Report
	m.set("correlate.correlate_ms", timeMS(5, func() {
		causes = engine.Correlate(res.Hypothesis, f.ChangeLog(), f.FaultLog())
	}), "ms", 5)
	m.set("correlate.root_causes", float64(len(causes.RootCauses)), "count", 0)

	return probeStore(r, base, ref, m)
}

// probeBDD times the BDD manager on a fixed op stream built from the
// deployment's own matches: one cube per match (exact fields only), then
// the fold loop's shape, a ladder of prefix unions and pairwise meets.
func probeBDD(dep *compile.Deployment, base *equiv.Base, ref *scout.Report, m metrics) {
	set := map[rule.Match]struct{}{}
	for _, sw := range sortedSwitches(dep.BySwitch) {
		equiv.CollectMatches(set, dep.BySwitch[sw])
	}
	matches := make([]rule.Match, 0, len(set))
	for mt := range set {
		matches = append(matches, mt)
	}
	equiv.SortMatches(matches)
	if len(matches) > 2048 {
		matches = matches[:2048]
	}
	lits := make([]map[int]bool, len(matches))
	for i, mt := range matches {
		l := map[int]bool{}
		field := func(off, width int, v uint32) {
			for b := 0; b < width; b++ {
				l[off+b] = v>>uint(width-1-b)&1 == 1
			}
		}
		field(0, 16, uint32(mt.VRF))
		field(16, 16, uint32(mt.SrcEPG))
		field(32, 16, uint32(mt.DstEPG))
		field(48, 8, uint32(mt.Proto))
		field(56, 16, uint32(mt.PortLo))
		lits[i] = l
	}

	mgr := bdd.NewManager(equiv.NumVars)
	cubes := make([]bdd.Node, len(lits))
	t0 := nowNS()
	for i, l := range lits {
		cubes[i] = mgr.Cube(l)
	}
	m.set("bdd.mk_ns_per_node", float64(nowNS()-t0)/float64(mgr.Size()), "ns", mgr.Size())

	applyStream := func(mg *bdd.Manager, cubes []bdd.Node) (roots []bdd.Node, ops int) {
		acc := bdd.False
		for i, c := range cubes {
			acc = mg.Or(acc, c)
			ops++
			if i%8 == 7 {
				roots = append(roots, mg.And(acc, mg.Not(c)))
				ops += 2
			}
		}
		return append(roots, acc), ops
	}
	t0 = nowNS()
	_, ops := applyStream(mgr, cubes)
	m.set("bdd.apply_cold_ns_per_op", float64(nowNS()-t0)/float64(ops), "ns", ops)
	t0 = nowNS()
	applyStream(mgr, cubes)
	m.set("bdd.apply_warm_ns_per_op", float64(nowNS()-t0)/float64(ops), "ns", ops)

	var snap *bdd.Snapshot
	m.set("bdd.freeze_ms", timeMS(1, func() { snap = mgr.Freeze() }), "ms", 1)
	var fork *bdd.Manager
	m.set("bdd.fork_us", timeMS(101, func() { fork = bdd.NewManagerFrom(snap) })*1e3, "us", 101)
	// The fork redoes the stream over shifted operands so its delta holds
	// fresh nodes, then keeps every other root.
	forkCubes := make([]bdd.Node, 0, len(cubes)/2)
	for i := 0; i+1 < len(cubes); i += 2 {
		forkCubes = append(forkCubes, fork.Xor(cubes[i], cubes[i+1]))
	}
	roots, _ := applyStream(fork, forkCubes)
	keep := make([]bdd.Node, 0, len(roots)/2+1)
	for i := 0; i < len(roots); i += 2 {
		keep = append(keep, roots[i])
	}
	m.set("bdd.compact_delta_ms", timeMS(1, func() { fork.CompactDelta(keep) }), "ms", 1)

	// 12 bytes a node: level, lo and hi are int32 in the frozen arrays.
	m.set("bdd.snapshot_bytes", float64(base.Snapshot().Size())*12, "B", 0)
	hit := 0.0
	if es := ref.EncodeStats; es != nil {
		hit = ratio(float64(es.OpCache.Hits()), float64(es.OpCache.Hits()+es.OpCache.Misses))
	}
	m.set("bdd.op_cache_hit_ratio", hit, "ratio", 0)
}

// probeStore round-trips the base and the reference verdicts through a
// temp store directory. File reads hit the page cache; no disk is
// measured.
func probeStore(r *runner, base *equiv.Base, ref *scout.Report, m metrics) error {
	dir, err := os.MkdirTemp(r.p.stateDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dep := r.env.dep
	_, depFP := equiv.DeploymentFingerprints(dep.BySwitch)
	tcams := r.env.fabric.CollectAll()
	verdicts := make([]store.Verdict, 0, len(ref.Switches))
	for _, sr := range ref.Switches {
		verdicts = append(verdicts, store.Verdict{
			Switch:    sr.Switch,
			LogicalFP: equiv.Fingerprint(dep.RulesFor(sr.Switch)),
			TCAMFP:    equiv.Fingerprint(tcams[sr.Switch]),
			Report:    &equiv.Report{Equivalent: sr.Equivalent, MissingRules: sr.MissingRules, ExtraRules: sr.ExtraRules},
		})
	}
	ws, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer ws.Close()
	flush := func() {
		if ferr := ws.Flush(); err == nil {
			err = ferr
		}
	}
	// Saves are write-behind, so each is timed through the Flush that
	// makes it durable; flush_ms is both at once, what Session.Close pays.
	m.set("store.save_base_ms", timeMS(1, func() { ws.SaveBase(depFP, base); flush() }), "ms", 1)
	m.set("store.save_verdicts_ms", timeMS(1, func() { ws.SaveVerdicts(depFP, false, verdicts); flush() }), "ms", 1)
	m.set("store.flush_ms", timeMS(1, func() {
		ws.SaveBase(depFP, base)
		ws.SaveVerdicts(depFP, false, verdicts)
		flush()
	}), "ms", 1)
	if err != nil {
		return err
	}
	var loaded *equiv.Base
	m.set("store.load_base_ms", timeMS(3, func() { loaded, err = ws.LoadBase(depFP) }), "ms", 3)
	if err != nil || loaded == nil || loaded.Size() != base.Size() {
		return fmt.Errorf("probe: base did not round-trip through the store: %v", err)
	}
	var vs []store.Verdict
	m.set("store.load_verdicts_ms", timeMS(3, func() { vs, err = ws.LoadVerdicts(depFP, false) }), "ms", 3)
	if err != nil || len(vs) != len(verdicts) {
		return fmt.Errorf("probe: %d of %d verdicts round-tripped through the store: %v", len(vs), len(verdicts), err)
	}
	for metricName, pattern := range map[string]string{"store.base_bytes": "base-*", "store.verdict_bytes": "checks-*"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(files) != 1 {
			return fmt.Errorf("probe: want one %s file in the store, have %v (%v)", pattern, files, err)
		}
		info, err := os.Stat(files[0])
		if err != nil {
			return err
		}
		m.set(metricName, float64(info.Size()), "B", 0)
	}
	return nil
}
