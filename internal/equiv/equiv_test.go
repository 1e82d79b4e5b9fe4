package equiv

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"scout/internal/bdd"
	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
	"scout/internal/workload"
)

// Hand-made checks: every step of the runner (harness_test.go), then the
// report they must produce.

func TestEquivalentIdenticalSets(t *testing.T) {
	l := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 80))
	checkPair(t, l, l, "equivalent")
}

// Missing rules keep their provenance: verdict finds them in the list by
// value.
func TestMissingRuleDetected(t *testing.T) {
	checkPair(t, withDeny(allowRule(1, 2, 3, 80, object.Filter(80)), allowRule(1, 2, 3, 700, object.Filter(700))),
		withDeny(allowRule(1, 2, 3, 80)), "missing [1] extra []")
}

func TestExtraRuleDetected(t *testing.T) {
	checkPair(t, withDeny(allowRule(1, 2, 3, 80)), withDeny(allowRule(1, 2, 3, 80), allowRule(1, 9, 9, 22)), "missing [] extra [1]")
}

// A VRF with bit 12 flipped: the intended behaviour is absent and a bogus
// one present.
func TestCorruptedRuleIsMissingPlusExtra(t *testing.T) {
	checkPair(t, withDeny(allowRule(1, 2, 3, 80)), withDeny(allowRule(4097, 2, 3, 80)), "missing [0] extra [0]")
}

// Ports [80,81] are two single-port rules: the BDD checker sees through
// the split, the naive key differ does not.
func TestSemanticEquivalenceDespiteDifferentRules(t *testing.T) {
	ranged := allowRule(1, 2, 3, 80)
	ranged.Match.PortHi = 81
	logical, deployed := withDeny(ranged), withDeny(allowRule(1, 2, 3, 80), allowRule(1, 2, 3, 81))
	checkPair(t, logical, deployed, "equivalent")
	if missing, extra := oracle.NaiveCheck(logical, deployed); len(missing)+len(extra) == 0 {
		t.Error("the naive differ saw through rule-splitting")
	}
}

func TestPartialRangeOverlapMissing(t *testing.T) {
	ranged := func(lo, hi uint16) rule.Rule {
		r := allowRule(1, 2, 3, lo)
		r.Match.PortHi = hi
		return r
	}
	checkPair(t, withDeny(ranged(100, 110)), withDeny(ranged(100, 105)), "missing [0] extra []")
}

// A deny above an allow shadows it: the list allows nothing.
func TestPriorityShadowing(t *testing.T) {
	deny := allowRule(1, 2, 3, 80)
	deny.Action, deny.Priority = rule.Deny, 20
	checkPair(t, []rule.Rule{deny, allowRule(1, 2, 3, 80), rule.DefaultDeny()}, []rule.Rule{rule.DefaultDeny()}, "equivalent")
}

func TestEmptySets(t *testing.T) {
	checkPair(t, nil, nil, "equivalent")
	checkPair(t, withDeny(allowRule(1, 2, 3, 80)), nil, "missing [0] extra []")
}

func TestEncodingRejectsOversizeIDs(t *testing.T) {
	checkPair(t, withDeny(allowRule(1<<17, 2, 3, 80)), nil, "error: encode logical rules: vrf id 131072 exceeds 16-bit encoding")
}

// A wildcard source covers strictly more than the one source deployed.
func TestWildcardFields(t *testing.T) {
	anySrc := allowRule(1, 0, 3, 80)
	anySrc.Match.WildcardSrc = true
	checkPair(t, withDeny(anySrc), withDeny(allowRule(1, 2, 3, 80)), "missing [0] extra []")
}

func TestCheckerReuseAcrossChecks(t *testing.T) {
	c := emptyFork()
	l1, l2 := withDeny(allowRule(1, 2, 3, 80)), withDeny(allowRule(1, 2, 3, 81))
	for i := 0; i < 3; i++ {
		r1, err1 := c.Check(l1, l1)
		r2, err2 := c.Check(l1, l2)
		if verdict(r1, err1, l1, l1) != "equivalent" || verdict(r2, err2, l1, l2) != "missing [0] extra [0]" {
			t.Fatalf("round %d: %s, %s", i, verdict(r1, err1, l1, l1), verdict(r2, err2, l1, l2))
		}
	}
}

// TestCheckerAgreesWithNaiveOnDisjointRules: subsets of a universe of
// disjoint allows, where checkStep holds the report to the naive key
// difference.
func TestCheckerAgreesWithNaiveOnDisjointRules(t *testing.T) {
	c := oracle.FromSeed(1)
	for i := 0; i < 30; i++ {
		var universe []rule.Rule
		for _, r := range genRules(c, 24) {
			if r.Action == rule.Allow && !slices.ContainsFunc(universe, func(o rule.Rule) bool { return overlaps(o.Match, r.Match) }) {
				universe = append(universe, r)
			}
		}
		pick := func() []rule.Rule {
			var out []rule.Rule
			for _, r := range universe {
				if c.Chance(2) {
					out = append(out, r)
				}
			}
			return withDeny(out...)
		}
		logical, deployed := pick(), pick()
		if !naiveApplies(logical, deployed) {
			t.Fatalf("not a universe of disjoint rules: %v", universe)
		}
		runPair(t, c, logical, deployed, checkStep)
	}
}

// Drawn cases, each through the steps its name is about.

func TestCompileEqualsFold(t *testing.T) {
	wide := rule.DefaultDeny().Match
	for _, rules := range [][]rule.Rule{
		nil,
		{rule.DefaultDeny()},
		{{Match: wide, Action: rule.Allow}},
		{ // deny shadows allow
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 100, PortHi: 200}, Action: rule.Deny},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 0, PortHi: rule.PortMax}, Action: rule.Allow},
		},
		{ // adjacent ranges merge
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 0, PortHi: 32767}, Action: rule.Allow},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 32768, PortHi: rule.PortMax}, Action: rule.Allow},
		},
		{ // wildcards above exact matches
			{Match: rule.Match{WildcardVRF: true, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}, Action: rule.Deny},
			{Match: rule.Match{VRF: 1, WildcardSrc: true, DstEPG: 3, PortLo: 0, PortHi: 1000}, Action: rule.Allow},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, WildcardDst: true, Proto: rule.ProtoUDP, PortLo: 53, PortHi: 53}, Action: rule.Allow},
		},
	} {
		runPair(t, oracle.FromSeed(0), rules, rules, compileStep)
	}
	runCases(t, 12, 150, compileStep)
}

func TestCompileAddsOnlyResultNodes(t *testing.T) { runCases(t, 5, 50, compileStep) }

func TestCompileMatchEqualsOracle(t *testing.T) { runCases(t, 3, 50, compileStep) }

// TestCompileErrorParity: the compiler rejects what the encoders it
// replaced rejected, with their text, for the first offending rule in list
// order — even one a higher-priority rule shadows — and reads no ID behind
// a wildcard.
func TestCompileErrorParity(t *testing.T) {
	good := allowRule(1, 2, 3, 80)
	bad := func(vrf, src, dst object.ID, lo, hi uint16) rule.Rule {
		return rule.Rule{Match: rule.Match{VRF: vrf, SrcEPG: src, DstEPG: dst, PortLo: lo, PortHi: hi}, Action: rule.Allow}
	}
	bigVRF, bigSrc, bigDst := bad(maxID+1, 2, 3, 0, rule.PortMax), bad(1, maxID+2, 3, 0, rule.PortMax), bad(1, 2, maxID+3, 0, rule.PortMax)
	inverted, both := bad(1, 2, 3, 90, 80), bad(1, 2, maxID+3, 9, 8)
	allowAll := rule.Rule{Match: rule.DefaultDeny().Match, Action: rule.Allow}
	for i, rules := range [][]rule.Rule{
		{good, bigVRF, bigSrc}, {bigSrc, bigVRF}, {good, bigDst, inverted}, {inverted, bigDst},
		{both}, {allowAll, inverted}, {rule.DefaultDeny(), good, bigVRF},
	} {
		runPair(t, oracle.FromSeed(0), rules, rules, compileStep)
		if _, err := compileSemantics(bdd.NewManager(NumVars), rules); err == nil {
			t.Errorf("list %d compiled", i)
		}
	}
	wild := bad(maxID+1, maxID+1, maxID+1, 443, 443)
	wild.Match.WildcardVRF, wild.Match.WildcardSrc, wild.Match.WildcardDst = true, true, true
	runPair(t, oracle.FromSeed(0), []rule.Rule{wild}, nil, compileStep)
	if _, err := compileSemantics(bdd.NewManager(NumVars), []rule.Rule{wild}); err != nil {
		t.Errorf("out-of-range IDs behind wildcards: %v", err)
	}
}

func TestMeetsEqualsIntersects(t *testing.T) { runCases(t, 5, 40, meetsStep) }

// TestAttributeEqualsWalkOfEveryRule: drawn cases, most of which encode,
// whose exact-triple rules both reuse the descent of the rule before them
// and descend anew; and one missing rule in each of 384 groups, a
// difference of as many VRF/src/dst paths.
func TestAttributeEqualsWalkOfEveryRule(t *testing.T) {
	var n attributeTally
	runCases(t, 23, 300, n.step)
	if n.pairs < 400 || n.reused == 0 || n.redone == 0 || n.hits == 0 { // 509, 2,155, 6,903 and 10,524 at this seed
		t.Fatalf("%d of 600 list pairs encoded, %d descents reused and %d redone, %d attributed rules: the comparison is all but vacuous",
			n.pairs, n.reused, n.redone, n.hits)
	}
	logical, deployed := genPair(oracle.FromBytes(alternatingSeed))
	rep, err := emptyFork().Check(logical, deployed)
	if got, want := fmt.Sprint(logical[:4]), "[[p10] vrf=1 src=2 dst=3 tcp 80-80 -> allow [p10] vrf=1 src=4 dst=5 tcp 80-80 -> allow "+
		"[p10] vrf=1 src=2 dst=3 tcp 81-81 -> allow [p10] vrf=* src=2 dst=6 tcp 80-80 -> allow]"; got != want ||
		verdict(rep, err, logical, deployed) != "missing [2] extra []" {
		t.Errorf("alternatingSeed decodes to %s, %s", got, verdict(rep, err, logical, deployed))
	}
	var wide []rule.Rule
	for i := 0; i < 384; i++ {
		wide = append(wide, allowRule(object.ID(1+i%3), object.ID(10+i), object.ID(500+i%7), uint16(80+i%2)))
	}
	wide = withDeny(wide...)
	ch := emptyFork()
	root, err := ch.resolve(wide)
	if err != nil {
		t.Fatal(err)
	}
	runPair(t, oracle.FromSeed(0), wide, nil, attributeStep)
	if got, _ := ch.attribute(wide, root); len(got) != len(wide)-1 {
		t.Errorf("%d of %d allow rules attributed", len(got), len(wide)-1)
	}
}

// typicalRules is n disjoint allow rules plus the default deny.
func typicalRules(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		rules = append(rules, allowRule(1, object.ID(i%64), object.ID(64+(i%64)), uint16(1024+i)))
	}
	return append(rules, rule.DefaultDeny())
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

// compileShapes are the common all-allow list and the two shapes that
// stress the compiler's own loops: one crowded leaf, and wildcards merged
// into every branch.
var compileShapes = []struct {
	name  string
	rules []rule.Rule
}{
	{"typical", typicalRules(5000)},
	{"port-ladder", portLadder(5000)},
	{"half-wildcard", halfWildcard(2500)},
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
		best := fold
		for i := 0; i < 3; i++ {
			start := time.Now()
			compileSemantics(bdd.NewManager(NumVars), shape.rules)
			best = min(best, time.Since(start))
		}
		t.Logf("%s: compile %v, oracle fold %v", shape.name, best, fold)
		if best >= fold {
			t.Errorf("%s: compile never beat the oracle fold's %v", shape.name, fold)
		}
	}
}

func TestMemoInvisibleOnShapes(t *testing.T) {
	for _, shape := range compileShapes {
		checkMemoInvisible(t, [][]rule.Rule{shape.rules}, [][]rule.Rule{evictFour(shape.rules), shape.rules})
	}
	runCases(t, 17, 200, memoStep)
}

func TestSharedSemanticsIdentity(t *testing.T) { runCases(t, 7, 40, checkStep) }

func TestCheckerBackendDifferential(t *testing.T) { runSweep(t, 0, 48) }

func TestCheckerCompactPreservesReports(t *testing.T) { runSweep(t, 11, 16) }

// FuzzCompileSemantics decodes a case and compiles it: on every engine, to
// the fold's node or its error, agreeing with a first-match scan, and
// through the shared memo to the memo-less nodes.
func FuzzCompileSemantics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		logical, deployed := genPair(c)
		runPair(t, c, logical, deployed, compileStep, memoStep)
	})
}

// alternatingSeed decodes to a logical list whose allow rules go A, B, A
// over two triples and then wildcard the VRF, and a deployed list that
// lost the second A: attribution descends for A, for B and for A again,
// and walks the wildcard rule from the root (TestAttributeEqualsWalkOfEveryRule).
var alternatingSeed = []byte{3,
	1, 1, 1, 2, 1, 3, 2, 1, 1, 1, 0, 3, 0, 3, 1, 1, 1, // vrf=1 src=2 dst=3 tcp 80
	1, 1, 1, 1, 4, 1, 5, 2, 1, 1, 1, 1, 0, 3, 0, 3, 1, 1, 1, // vrf=1 src=4 dst=5 tcp 80
	1, 1, 1, 1, 2, 1, 3, 2, 1, 1, 1, 1, 0, 4, 0, 4, 1, 1, 1, // vrf=1 src=2 dst=3 tcp 81
	1, 1, 1, 1, 2, 1, 6, 2, 0, 1, 1, 1, 0, 3, 0, 3, 1, 1, 1, // vrf=* src=2 dst=6 tcp 80
	1,                // the default deny
	1, 1, 2, 0, 0, 1, // the deployed list drops rule 2 and nothing else
}

// FuzzMeets decodes a case and walks its differences with every rule, and
// attributes them.
func FuzzMeets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0x20, 1, 2, 3, 0, 0, 0, 0, 0, 9, 8, 7})
	f.Add(alternatingSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		logical, deployed := genPair(c)
		runPair(t, c, logical, deployed, meetsStep, attributeStep)
	})
}
