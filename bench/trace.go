package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"scout"
	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
	"scout/internal/stream"
)

// span is one timed interval. Spans are recorded from the benchmark's
// own files, around the calls into each layer; nothing inside the
// program is instrumented. Parent is the index of the causing span (-1
// for a root) and Op groups the spans of one op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
	op    int
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, StartNS: nowNS(), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNS = nowNS() }

// record adds a span that was timed elsewhere.
func (t *tracer) record(name string, parent int, startNS, endNS int64) int {
	t.spans = append(t.spans, span{Name: name, StartNS: startNS, EndNS: endNS, Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// in times fn as a child span of parent.
func (t *tracer) in(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// spanRow is one line of the span table: all spans of a name, with self
// time being the span's duration minus its children's.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// PerOpMS is self time divided by the number of traced ops.
	PerOpMS float64 `json:"self_ms_per_op"`
}

// childNS returns, per span, the summed duration of its direct children.
func (t *tracer) childNS() []int64 {
	out := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			out[s.Parent] += s.EndNS - s.StartNS
		}
	}
	return out
}

// table folds the spans into per-name rows, largest self time first.
func (t *tracer) table(ops int) []spanRow {
	childNS := t.childNS()
	byName := map[string]*spanRow{}
	for i, s := range t.spans {
		row := byName[s.Name]
		if row == nil {
			row = &spanRow{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.EndNS - s.StartNS
		row.Count++
		row.TotalMS += ms(d)
		row.SelfMS += ms(d - childNS[i])
	}
	rows := make([]spanRow, 0, len(byName))
	for _, row := range byName {
		if ops > 0 {
			row.PerOpMS = row.SelfMS / float64(ops)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// residuals returns, for every span of the given name, its duration minus
// its direct children's, in ms.
func (t *tracer) residuals(name string) []float64 {
	childNS := t.childNS()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.EndNS-s.StartNS-childNS[i]))
		}
	}
	return out
}

// write dumps the raw spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanPublicOp names a public op's span; the staged replay of the same
// inputs hangs beneath it.
const spanPublicOp = "scout.op"

// stager pushes an op's inputs through the layers one exported call at a
// time, keeping between ops what a Session keeps (frozen base, a
// persistent checker fork, per-switch verdicts, the pristine controller
// model, annotated switch models), so the staged spans add up to the
// work the public op did and what is left over is the Session's own
// glue. It runs serially: its counts are those of Workers: 1.
type stager struct {
	tr     *tracer
	dep    *compile.Deployment
	engine *correlate.Engine
	budget int

	base     *equiv.Base
	depFP    uint64
	checker  *equiv.Checker
	verdicts map[object.ID]*store.Verdict
	pristine *risk.Model
	models   map[object.ID]stagedModel

	checks int
}

type stagedModel struct {
	report *equiv.Report
	model  *risk.Model
}

// sessionNodeBudget mirrors the Session default (4 << 20 delta nodes per
// checker) so the staged checker compacts when a session's would.
const sessionNodeBudget = 4 << 20

func newStager(tr *tracer, dep *compile.Deployment) *stager {
	return &stager{tr: tr, dep: dep, engine: correlate.NewEngine(nil), budget: sessionNodeBudget,
		verdicts: map[object.ID]*store.Verdict{}, models: map[object.ID]stagedModel{}}
}

// buildBase is the cold check-stage warm-up: fingerprint the deployment,
// gather its distinct matches and freeze them with one semantics root
// per distinct rule list.
func (s *stager) buildBase(parent int) {
	s.tr.in("equiv.fingerprint", parent, func() {
		_, s.depFP = equiv.DeploymentFingerprints(s.dep.BySwitch)
	})
	s.tr.in("equiv.base_build", parent, func() { s.base = buildBase(s.dep) })
}

// buildBase encodes a deployment's matches and whole-switch rule lists
// into a frozen base the way the analyzer's warm-up does: sorted matches,
// one list per distinct semantics fingerprint, lowest switch first.
func buildBase(dep *compile.Deployment) *equiv.Base {
	switches := sortedSwitches(dep.BySwitch)
	set := map[rule.Match]struct{}{}
	seen := map[uint64]bool{}
	var lists [][]rule.Rule
	for _, sw := range switches {
		rules := dep.BySwitch[sw]
		equiv.CollectMatches(set, rules)
		if fp := equiv.SemanticsFingerprint(rules); !seen[fp] {
			seen[fp] = true
			lists = append(lists, rules)
		}
	}
	matches := make([]rule.Match, 0, len(set))
	for m := range set {
		matches = append(matches, m)
	}
	equiv.SortMatches(matches)
	return equiv.NewBase(matches, lists...)
}

func sortedSwitches[V any](m map[object.ID]V) []object.ID {
	out := make([]object.ID, 0, len(m))
	for sw := range m {
		out = append(out, sw)
	}
	slices.Sort(out)
	return out
}

// dirtyHint is what an entry point knows about which switches changed
// since the previous analysis: with known set, only the named switches
// may have (an epoch diff or an event batch said so); otherwise every
// switch must be fingerprinted.
type dirtyHint struct {
	switches []object.ID
	known    bool
}

// analyze runs check → model → localize → correlate on collected TCAMs
// and returns the controller hypothesis.
func (s *stager) analyze(parent int, tcams map[object.ID][]rule.Rule, in dirtyHint,
	changes *scout.ChangeLog, faults *scout.FaultLog, now time.Time) ([]object.Ref, error) {
	if s.base == nil {
		s.buildBase(parent)
	}
	switches := sortedSwitches(tcams)
	maybeDirty := map[object.ID]bool{}
	for _, sw := range in.switches {
		maybeDirty[sw] = true
	}

	var recheck []object.ID
	fps := map[object.ID]uint64{}
	s.tr.in("equiv.fingerprint", parent, func() {
		for _, sw := range switches {
			v := s.verdicts[sw]
			if v != nil && in.known && !maybeDirty[sw] {
				continue
			}
			fps[sw] = equiv.Fingerprint(tcams[sw])
			if v == nil || v.TCAMFP != fps[sw] {
				recheck = append(recheck, sw)
			}
		}
	})

	var checkErr error
	if len(recheck) > 0 {
		id := s.tr.begin("equiv.check", parent)
		if s.checker == nil {
			s.checker = s.base.NewCheckerSized(1 << 18)
		}
		if s.checker.DeltaSize() > s.budget {
			s.tr.in("equiv.compact", id, func() { s.checker.Compact() })
			if s.checker.DeltaSize() > s.budget {
				s.checker.Reset()
			}
		}
		for _, sw := range recheck {
			rep, err := s.checker.Check(s.dep.RulesFor(sw), tcams[sw])
			if err != nil {
				checkErr = fmt.Errorf("staged check switch %d: %w", sw, err)
				break
			}
			s.checks++
			s.verdicts[sw] = &store.Verdict{Switch: sw, TCAMFP: fps[sw], Report: rep}
		}
		s.tr.end(id)
	}
	if checkErr != nil {
		return nil, checkErr
	}

	var ctrl *risk.Overlay
	s.tr.in("risk.ctrl_build", parent, func() {
		if s.pristine == nil {
			s.pristine = risk.BuildControllerModelParallel(s.dep, risk.ControllerModelOptions{IncludeSwitchRisk: true}, 1)
		}
		ctrl = risk.NewOverlay(s.pristine)
	})

	oracle := localize.ChangeLogOracle{Log: changes, Since: now.Add(-24 * time.Hour)}
	consistent := true
	for _, sw := range switches {
		rep := s.verdicts[sw].Report
		if rep.Equivalent {
			continue
		}
		consistent = false
		cached, ok := s.models[sw]
		if !ok || cached.report != rep {
			s.tr.in("risk.switch_build", parent, func() {
				cached = stagedModel{rep, risk.BuildAnnotatedSwitchModel(s.dep, sw, rep.MissingRules)}
				s.models[sw] = cached
			})
		}
		s.tr.in("localize.switch", parent, func() { localize.Scout(cached.model, oracle) })
		s.tr.in("risk.overlay_augment", parent, func() {
			risk.AugmentControllerModelPatch(ctrl, sw, rep.MissingRules, s.dep.Provenance).Apply(ctrl)
		})
	}
	if consistent {
		return nil, nil
	}
	var hyp []object.Ref
	s.tr.in("localize.controller", parent, func() { hyp = localize.Scout(ctrl, oracle).Hypothesis })
	s.tr.in("correlate.correlate", parent, func() { s.engine.Correlate(hyp, changes, faults) })
	return hyp, nil
}

// staged is one workload's staged replay: the collection, stream and
// store calls that precede analysis differ per journey, the analysis
// itself is stager.analyze.
type staged struct {
	r     *runner
	tr    *tracer
	warm  *stager            // persists across ops on the session journeys
	col   *collect.Collector // the stager's own collector
	prev  *collect.Epoch
	queue *stream.Queue
	dir   string // restart: the primed store directory's staged twin
}

// newStaged brings the staged twin of a workload to the steady state the
// public one is in now: a collected epoch, and on the session journeys
// warm verdicts, base and models for it (on restart, a primed store). Ops
// run after this must each be followed by a replay, or the twin's epochs
// and verdicts fall behind the session's.
func newStaged(r *runner, tr *tracer) (*staged, error) {
	g := &staged{r: r, tr: tr, col: collect.New(r.env.fabric, 4)}
	switch r.name {
	case "warm-clean", "warm-churn", "event-storm":
		g.warm = newStager(&tracer{}, r.env.dep) // priming spans are discarded
		g.prev = g.col.Snapshot()
		if _, err := g.analyze(g.warm, -1, g.prev.TCAM, dirtyHint{}); err != nil {
			return nil, err
		}
		g.warm.tr = tr
		g.queue = stream.New(stream.Options{Cap: 64, BatchSize: 8})
	case "restart":
		dir, err := os.MkdirTemp(r.p.stateDir, "staged-")
		if err != nil {
			return nil, err
		}
		g.dir = dir
		prime := newStager(&tracer{}, r.env.dep)
		if _, err := g.analyze(prime, -1, g.col.Snapshot().TCAM, dirtyHint{}); err != nil {
			return nil, err
		}
		ws, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		ws.SaveBase(prime.depFP, prime.base)
		ws.SaveVerdicts(prime.depFP, false, prime.verdictList())
		if err := ws.Close(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *staged) close() {
	if g.dir != "" {
		os.RemoveAll(g.dir)
	}
}

func (g *staged) analyze(s *stager, parent int, tcams map[object.ID][]rule.Rule, in dirtyHint) ([]object.Ref, error) {
	f := g.r.env.fabric
	return s.analyze(parent, tcams, in, f.ChangeLog(), f.FaultLog(), f.Now())
}

func (s *stager) verdictList() []store.Verdict {
	out := make([]store.Verdict, 0, len(s.verdicts))
	for _, sw := range sortedSwitches(s.verdicts) {
		v := *s.verdicts[sw]
		v.LogicalFP = equiv.Fingerprint(s.dep.RulesFor(sw))
		out = append(out, v)
	}
	return out
}

// replay stages the op the runner just ran, as children of the given
// public-op span, and returns the staged hypothesis.
func (g *staged) replay(id int) ([]object.Ref, error) {
	switch g.r.name {
	case "cold-oneshot":
		var e *collect.Epoch
		g.tr.in("collect.snapshot", id, func() { e = g.col.Snapshot() })
		return g.analyze(newStager(g.tr, g.r.env.dep), id, e.TCAM, dirtyHint{})

	case "warm-clean", "warm-churn":
		var e *collect.Epoch
		g.tr.in("collect.snapshot", id, func() { e = g.col.Snapshot() })
		var dirty []object.ID
		g.tr.in("collect.diff", id, func() { dirty = collect.DirtySwitches(g.prev, e) })
		g.prev = e
		return g.analyze(g.warm, id, e.TCAM, dirtyHint{dirty, true})

	case "event-storm":
		var batch stream.Batch
		g.tr.in("stream.push", id, func() {
			for _, ev := range g.r.lastEvents {
				g.queue.Push(ev)
			}
		})
		g.tr.in("stream.cut", id, func() { batch = g.queue.Cut(g.r.env.fabric.Now()) })
		var e *collect.Epoch
		var err error
		g.tr.in("collect.partial", id, func() { e, err = g.col.SnapshotSwitches(batch.Switches) })
		if err != nil {
			return nil, err
		}
		return g.analyze(g.warm, id, e.TCAM, dirtyHint{batch.Switches, true})

	case "restart":
		s := newStager(g.tr, g.r.env.dep)
		var ws *store.Store
		var err error
		g.tr.in("store.open", id, func() { ws, err = store.Open(g.dir) })
		if err != nil {
			return nil, err
		}
		g.tr.in("equiv.fingerprint", id, func() { _, s.depFP = equiv.DeploymentFingerprints(s.dep.BySwitch) })
		g.tr.in("store.load_base", id, func() { s.base, err = ws.LoadBase(s.depFP) })
		if err != nil || s.base == nil {
			ws.Close()
			return nil, fmt.Errorf("staged restart: base not loaded: %v", err)
		}
		var vs []store.Verdict
		g.tr.in("store.load_verdicts", id, func() { vs, err = ws.LoadVerdicts(s.depFP, false) })
		if err != nil {
			ws.Close()
			return nil, err
		}
		for i := range vs {
			s.verdicts[vs[i].Switch] = &vs[i]
		}
		var e *collect.Epoch
		g.tr.in("collect.snapshot", id, func() { e = g.col.Snapshot() })
		hyp, err := g.analyze(s, id, e.TCAM, dirtyHint{})
		g.tr.in("store.close", id, func() {
			if cerr := ws.Close(); err == nil {
				err = cerr
			}
		})
		if err == nil && s.checks != 0 {
			err = fmt.Errorf("staged restart re-checked %d switches, want 0", s.checks)
		}
		return hyp, err
	}
	return nil, fmt.Errorf("no staged replay for %q", g.r.name)
}
