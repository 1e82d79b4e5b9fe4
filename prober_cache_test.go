package scout

import (
	"testing"

	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/probe"
	"scout/internal/rule"
	"scout/internal/workload"
)

// TestProberCachedPerDeployment pins the probe-stage cross-run reuse, which
// is the session's: it keeps one prober per deployment beside the rest of
// what it resolves from one — the same pointer keeps it, an equal-content
// deployment at a different address keeps it rebound (packet memo intact),
// and a recompile (changed rules) replaces it. An Analyzer keeps nothing
// between calls.
func TestProberCachedPerDeployment(t *testing.T) {
	pol, tp, err := workload.Generate(workload.TestbedSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(pol, tp, fabric.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(); err != nil {
		t.Fatal(err)
	}
	d := f.Deployment()

	sess, err := NewSession(f, AnalyzerOptions{UseProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.ProberStats(); ok {
		t.Error("a session that never ran has a prober")
	}
	resolve := func(d *Deployment) *probe.Prober {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		sess.resolveLocked(d)
		return sess.dep.prober
	}
	p1 := resolve(d)
	if p1 == nil {
		t.Fatal("nil prober")
	}
	if sess.dep.base != nil {
		t.Error("a probe session built a BDD base")
	}
	if resolve(d) != p1 {
		t.Error("same deployment pointer must reuse the prober")
	}

	// Same content at a different address: the fingerprint path keeps
	// the prober (and its packet memo) alive.
	copied := *d
	if resolve(&copied) != p1 {
		t.Error("equal-content deployment must reuse the prober")
	}
	// ...and re-arms the pointer fast path for the new address.
	if sess.dep.d != &copied || resolve(&copied) != p1 {
		t.Error("pointer fast path must track the latest deployment")
	}

	// A recompile-shaped change (one switch's rules differ) must rebuild.
	changed := *d
	changed.BySwitch = make(map[object.ID][]rule.Rule, len(d.BySwitch))
	for sw, rules := range d.BySwitch {
		changed.BySwitch[sw] = rules
	}
	for sw, rules := range changed.BySwitch {
		if len(rules) > 0 {
			changed.BySwitch[sw] = rules[1:]
			break
		}
	}
	if resolve(&changed) == p1 {
		t.Error("changed deployment must rebuild the prober")
	}

	// End to end: a session's repeated probe analyses share the memo, so
	// the second run synthesizes nothing new even when every switch is
	// re-classified.
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	first, _ := sess.ProberStats()
	sess.Invalidate()
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	second, _ := sess.ProberStats()
	if second.MemoMisses != first.MemoMisses {
		t.Errorf("second probe run synthesized %d new packets, want 0", second.MemoMisses-first.MemoMisses)
	}
	if second.MemoHits <= first.MemoHits {
		t.Error("second probe run must hit the shared packet memo")
	}
}
