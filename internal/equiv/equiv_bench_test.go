package equiv

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scout/internal/bdd"
	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/rule"
	"scout/internal/workload"
)

// benchRules builds n disjoint allow rules plus the default deny.
func benchRules(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		rules = append(rules, allowRule(1, object.ID(i%64), object.ID(64+(i%64)), uint16(1024+i)))
	}
	return append(rules, rule.DefaultDeny())
}

// BenchmarkCheckEquivalent measures a clean check (the common periodic
// case: every switch consistent).
func BenchmarkCheckEquivalent(b *testing.B) {
	rules := benchRules(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewChecker()
		rep, err := c.Check(rules, rules)
		if err != nil || !rep.Equivalent {
			b.Fatal("check failed")
		}
	}
}

// BenchmarkCheckWithMissing measures a check that must extract missing
// rules (5% removed).
func BenchmarkCheckWithMissing(b *testing.B) {
	logical := benchRules(1024)
	deployed := make([]rule.Rule, 0, len(logical))
	for i, r := range logical {
		if i%20 == 7 {
			continue
		}
		deployed = append(deployed, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewChecker()
		rep, err := c.Check(logical, deployed)
		if err != nil || rep.Equivalent || len(rep.MissingRules) == 0 {
			b.Fatal("check failed")
		}
	}
}

// BenchmarkCheckerReuse measures the amortized cost when one checker
// (with its semantics memo) serves repeated checks, the Analyzer's pattern.
func BenchmarkCheckerReuse(b *testing.B) {
	rules := benchRules(1024)
	c := NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := c.Check(rules, rules)
		if err != nil || !rep.Equivalent {
			b.Fatal("check failed")
		}
	}
}

// benchFabricTables builds per-switch (logical, deployed) table pairs:
// each switch carries a distinct slice of the rule space and a ~5%
// degraded TCAM copy, mimicking a multi-switch fabric under faults.
func benchFabricTables(switches, rulesPerSwitch int) (logical, deployed [][]rule.Rule) {
	logical = make([][]rule.Rule, switches)
	deployed = make([][]rule.Rule, switches)
	for s := 0; s < switches; s++ {
		rules := make([]rule.Rule, 0, rulesPerSwitch+1)
		for i := 0; i < rulesPerSwitch; i++ {
			rules = append(rules, allowRule(1,
				object.ID((s*7+i)%64), object.ID(64+(s*11+i)%64), uint16(1024+s*rulesPerSwitch+i)))
		}
		rules = append(rules, rule.DefaultDeny())
		logical[s] = rules
		deg := make([]rule.Rule, 0, len(rules))
		for i, r := range rules {
			if i%20 == s%20 && i < rulesPerSwitch {
				continue
			}
			deg = append(deg, r)
		}
		deployed[s] = deg
	}
	return logical, deployed
}

// benchFanout checks every switch's tables with the given worker count —
// the Analyzer's check-stage sharding. With shared=false each worker owns
// a private Checker built from scratch; with shared=true the logical
// lists are compiled into a frozen Base once per iteration and each
// worker forks it, so a drifted TCAM list compiles against its frozen
// logical twin and lands only its edits in the worker's delta.
func benchFanout(b *testing.B, workers int, shared bool) {
	const switches = 16
	logical, deployed := benchFabricTables(switches, 512)
	newChecker := func() *Checker { return NewChecker() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shared {
			base := newBase(logical...)
			newChecker = base.NewChecker
		}
		var wg sync.WaitGroup
		var next atomic.Int64
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newChecker()
				for {
					s := int(next.Add(1)) - 1
					if s >= switches {
						return
					}
					rep, err := c.Check(logical[s], deployed[s])
					if err != nil || rep.Equivalent {
						b.Error("degraded copy must differ")
						return
					}
				}
			}()
		}
		wg.Wait()
		next.Store(0)
	}
}

// BenchmarkFanoutSerial is the one-checker-for-all-switches baseline
// (the pre-worker-pool Analyzer pipeline).
func BenchmarkFanoutSerial(b *testing.B) { benchFanout(b, 1, false) }

// BenchmarkFanout4 shards the same fabric across 4 private checkers; the
// speedup over BenchmarkFanoutSerial is bounded by GOMAXPROCS.
func BenchmarkFanout4(b *testing.B) { benchFanout(b, 4, false) }

// BenchmarkFanoutShared4 shards across 4 forks of a shared frozen base
// (warmup included in the measurement): each worker compiles only what
// its switches' TCAM lists changed.
func BenchmarkFanoutShared4(b *testing.B) { benchFanout(b, 4, true) }

// BenchmarkCheckSemanticsShared measures a check whose whole-list folds
// resolve from frozen base roots (the warm continuous-verification
// path): both sides hit the semantics memo, so per-check cost collapses
// to two fingerprint hashes plus the root-equality test. Compare with
// BenchmarkCheckSemanticsPrivate, the same check folding per fork.
func BenchmarkCheckSemanticsShared(b *testing.B) {
	rules := benchRules(1024)
	base := newBase(rules)
	c := base.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := c.Check(rules, rules)
		if err != nil || !rep.Equivalent {
			b.Fatal("check failed")
		}
	}
	b.ReportMetric(float64(c.DeltaSize())/float64(b.N), "delta-nodes/op")
}

// BenchmarkCheckSemanticsPrivate is the ablation twin: the base froze
// nothing, so every iteration's fresh fork compiles the whole list into
// its delta.
func BenchmarkCheckSemanticsPrivate(b *testing.B) {
	rules := benchRules(1024)
	base := newBase()
	b.ResetTimer()
	deltas := 0
	for i := 0; i < b.N; i++ {
		c := base.NewChecker()
		rep, err := c.Check(rules, rules)
		if err != nil || !rep.Equivalent {
			b.Fatal("check failed")
		}
		deltas += c.DeltaSize()
	}
	b.ReportMetric(float64(deltas)/float64(b.N), "delta-nodes/op")
}

// productionQuarter compiles the production spec scaled by 0.25 (the
// repository benchmark's input at seed 42: 8 switches, 46,216 rules) and
// returns the switches' logical rule lists in ascending switch order.
func productionQuarter(tb testing.TB, seed int64) [][]rule.Rule {
	tb.Helper()
	// eval.SimSpec(0.25), which this package cannot import.
	spec := workload.ProductionSpec()
	for _, n := range []*int{&spec.Switches, &spec.EPGs, &spec.Contracts, &spec.Filters, &spec.TargetPairs} {
		*n = int(math.Round(float64(*n) * 0.25))
	}
	pol, tp, err := workload.Generate(spec, seed)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := compile.Compile(pol, tp)
	if err != nil {
		tb.Fatal(err)
	}
	var lists [][]rule.Rule
	for _, sw := range tp.Switches() {
		lists = append(lists, dep.BySwitch[sw])
	}
	return lists
}

// evictFour is a switch's TCAM after a four-rule eviction from the middle
// of its list: the dirty side of a rolling-change check.
func evictFour(logical []rule.Rule) []rule.Rule {
	mid := len(logical) / 2
	return append(append([]rule.Rule(nil), logical[:mid]...), logical[mid+4:]...)
}

// BenchmarkBaseBuildProduction measures the cold check stage's warm-up:
// the eight production-quarter lists compiled into one base and frozen.
func BenchmarkBaseBuildProduction(b *testing.B) {
	lists := productionQuarter(b, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if base := newBase(lists...); base.NumSemantics() != len(lists) {
			b.Fatal("every list must freeze its own root")
		}
	}
}

// BenchmarkDirtyCheckProduction measures a rolling-change epoch's checks:
// each of the eight switches has lost four rules, and one fork of the warm
// base compiles the eight drifted lists and attributes the differences.
func BenchmarkDirtyCheckProduction(b *testing.B) {
	lists := productionQuarter(b, 42)
	tcams := make([][]rule.Rule, len(lists))
	for i, l := range lists {
		tcams[i] = evictFour(l)
	}
	base := newBase(lists...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.NewChecker()
		for j, l := range lists {
			rep, err := c.Check(l, tcams[j])
			if err != nil || len(rep.MissingRules) != 4 {
				b.Fatalf("switch %d: %v, report %+v", j, err, rep)
			}
		}
	}
}

// BenchmarkAttribute measures difference attribution alone on one dirty
// production-quarter switch: its rule list with four rules evicted
// and one entry corrupted, both differences already built, every allow
// rule on each side walked against its difference.
func BenchmarkAttribute(b *testing.B) {
	lists := productionQuarter(b, 1)
	logical := lists[0]
	deployed := evictFour(logical)
	deployed[len(logical)/4].Match.DstEPG++
	c := newBase(lists...).NewChecker()
	l, err := c.semantics(logical)
	if err != nil {
		b.Fatal(err)
	}
	t, err := c.semantics(deployed)
	if err != nil {
		b.Fatal(err)
	}
	missing, extra := c.m.Diff(l, t), c.m.Diff(t, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss, _ := c.attribute(logical, missing)
		ext, _ := c.attribute(deployed, extra)
		if len(miss) == 0 || len(ext) == 0 {
			b.Fatal("both differences must be attributed")
		}
	}
	b.ReportMetric(float64(len(logical)+len(deployed)), "rules/op")
}

// portLadder is n rules on one (vrf, src, dst, proto), each on its own
// port, every third a deny: the whole list lands in one leaf, so the
// port-axis first-match resolution is all there is to do.
func portLadder(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		r := allowRule(1, 2, 3, uint16(1000+7*i))
		if i%3 == 2 {
			r.Action = rule.Deny
		}
		rules = append(rules, r)
	}
	return append(rules, rule.DefaultDeny())
}

// halfWildcard is n rules of which every other one wildcards a field
// (VRF, source and destination in rotation) over a port range, so
// wildcard rules are merged into many exact branches at every level.
func halfWildcard(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		r := allowRule(object.ID(1+i%4), object.ID(10+i%37), object.ID(100+i%41), uint16(2000+i))
		if i%2 == 1 {
			switch i / 2 % 3 {
			case 0:
				r.Match.WildcardVRF = true
			case 1:
				r.Match.WildcardSrc = true
			default:
				r.Match.WildcardDst = true
			}
			r.Match.PortHi = r.Match.PortLo + 40
			if i%8 == 1 {
				r.Action = rule.Deny
			}
		}
		rules = append(rules, r)
	}
	return append(rules, rule.DefaultDeny())
}

var compileShapes = []struct {
	name  string
	rules []rule.Rule
}{
	{"typical", benchRules(5000)},
	{"port-ladder", portLadder(5000)},
	{"half-wildcard", halfWildcard(2500)},
}

// BenchmarkCompileSemantics measures the direct compiler against the
// apply-based oracle fold it replaced, each into a fresh manager, on the
// common all-allow list and on the two shapes that stress the compiler's
// own loops: one crowded leaf, and wildcards merged into every branch.
func BenchmarkCompileSemantics(b *testing.B) {
	for _, shape := range compileShapes {
		b.Run(shape.name+"/compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compileSemantics(bdd.NewManager(NumVars), shape.rules); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oracleSemantics(bdd.NewManager(NumVars), shape.rules); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileShapeGuards keeps the compiler's worst shapes honest: on
// each list it must produce the oracle's node and take no longer than the
// oracle fold does (the compile's best of three against the fold's one
// run, so a scheduling hiccup cannot fail it). A leaf resolved by
// rescanning the list per port segment, or wildcards re-sorted per
// branch, fails this.
func TestCompileShapeGuards(t *testing.T) {
	for _, shape := range compileShapes {
		m := bdd.NewManager(NumVars)
		start := time.Now()
		want, err := oracleSemantics(m, shape.rules)
		fold := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := compileSemantics(m, shape.rules); got != want {
			t.Fatalf("%s: compiled root %d, fold root %d", shape.name, got, want)
		}
		compile := fold
		for i := 0; i < 3; i++ {
			start := time.Now()
			compileSemantics(bdd.NewManager(NumVars), shape.rules)
			compile = min(compile, time.Since(start))
		}
		t.Logf("%s: compile %v, oracle fold %v", shape.name, compile, fold)
		if compile >= fold {
			t.Errorf("%s: compile never beat the oracle fold's %v", shape.name, fold)
		}
	}
}
