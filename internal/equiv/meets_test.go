// Tests for the attribution walk (meets.go) against the construction it
// replaced: in one manager, walking a difference under a rule's
// constraints answers whether the rule's match BDD And-ed with the
// difference is satisfiable, on every engine — and reads a diagram with
// shared subgraphs once per node, where a memo-less intersection costs
// once per path.

package equiv

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// meetsEngines adds a copy-on-write fork to compileEngines: its base is
// pre-warmed from a fixed seed, so diagrams built in it afterwards span
// frozen and delta nodes.
var meetsEngines = map[string]func() applyBackend{
	"manager": compileEngines["manager"],
	"ref":     compileEngines["ref"],
	"fork": func() applyBackend {
		m := bdd.NewManager(NumVars)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 8; i++ {
			if _, err := compileSemantics(m, randCompileList(rng, 12)); err != nil {
				panic(err)
			}
		}
		return bdd.NewManagerFrom(m.Freeze())
	},
}

// meetsPorts are the port ranges every wildcard combination is tried with:
// full, the two ends of the axis as single ports, an interior single port,
// ranges anchored at either end, one straddling the middle of the axis and
// one inside a half.
var meetsPorts = [][2]uint16{
	{0, rule.PortMax}, {0, 0}, {rule.PortMax, rule.PortMax}, {80, 80},
	{0, 1023}, {32768, rule.PortMax}, {32767, 32768}, {1000, 2000},
}

// sparseDiagram ORs a few cubes over randomly chosen variables, so its
// nodes skip levels in every field, the port bits included.
func sparseDiagram(m applyBackend, rng *rand.Rand) bdd.Node {
	n := bdd.False
	for c := 1 + rng.Intn(4); c > 0; c-- {
		lits := map[int]bool{}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			lits[rng.Intn(NumVars)] = rng.Intn(2) == 0
		}
		n = m.Or(n, m.Cube(lits))
	}
	return n
}

// checkMeets asserts the walk and the oracle agree on match against diff,
// and that the walk interned nothing.
func checkMeets(t *testing.T, m applyBackend, w *meetWalk, match rule.Match, diff bdd.Node) {
	t.Helper()
	enc, err := compileMatch(m, match)
	if err != nil {
		t.Fatal(err)
	}
	want := m.And(enc, diff) != bdd.False
	size := m.DeltaSize()
	if got := w.meets(rule.Rule{Match: match}, diff); got != want {
		t.Fatalf("match %v against node %d: walk says %v, And says %v", match, diff, got, want)
	}
	if m.DeltaSize() != size {
		t.Fatalf("the walk interned %d nodes", m.DeltaSize()-size)
	}
	// The path filter in front of the walk may pass a rule the walk then
	// rejects, never drop one it accepts.
	if paths, ok := diffPaths(m, diff); ok && want && !onPath(paths, match) {
		t.Fatalf("match %v meets node %d but is on none of its %d paths", match, diff, len(paths))
	}
}

// TestMeetsEqualsIntersects: random differences of rule lists, sparse
// level-skipping diagrams and the terminals, each against rules drawn like
// the lists' own (so they collide on fields) and against every wildcard
// combination × {any, named} protocol × meetsPorts on IDs the diagrams
// use.
func TestMeetsEqualsIntersects(t *testing.T) {
	for engine, newM := range meetsEngines {
		m := newM()
		w := &meetWalk{m: m}
		rng := rand.New(rand.NewSource(5))
		diffs := []bdd.Node{bdd.False, bdd.True}
		for i := 0; i < 40; i++ {
			a, err := compileSemantics(m, randCompileList(rng, 1+rng.Intn(12)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := compileSemantics(m, randCompileList(rng, 1+rng.Intn(12)))
			if err != nil {
				t.Fatal(err)
			}
			sparse := sparseDiagram(m, rng)
			diffs = append(diffs, m.Diff(a, b), sparse, m.Diff(a, sparse), m.And(a, sparse))
		}
		var prev rule.Match
		for _, diff := range diffs {
			for i := 0; i < 40; i++ {
				match := randCompileRule(rng, prev).Match
				prev = match
				checkMeets(t, m, w, match, diff)
			}
			for wild := 0; wild < 8; wild++ {
				for _, proto := range []rule.Protocol{rule.ProtoAny, rule.ProtoTCP} {
					for _, p := range meetsPorts {
						id := func() object.ID { return compileIDs[rng.Intn(len(compileIDs))] }
						checkMeets(t, m, w, rule.Match{
							VRF: id(), SrcEPG: id(), DstEPG: id(), Proto: proto, PortLo: p[0], PortHi: p[1],
							WildcardVRF: wild&1 != 0, WildcardSrc: wild&2 != 0, WildcardDst: wild&4 != 0,
						}, diff)
					}
				}
			}
		}
		t.Logf("%s: %d diagrams", engine, len(diffs))
	}
}

// readCounter counts the walk's node reads.
type readCounter struct {
	applyBackend
	reads int
}

func (c *readCounter) NodeAt(n bdd.Node) (int32, bdd.Node, bdd.Node) {
	c.reads++
	return c.applyBackend.NodeAt(n)
}

// paths counts n's paths to True.
func paths(m Backend, n bdd.Node, memo map[bdd.Node]int) int {
	switch n {
	case bdd.False:
		return 0
	case bdd.True:
		return 1
	}
	if p, ok := memo[n]; ok {
		return p
	}
	_, lo, hi := m.NodeAt(n)
	p := paths(m, lo, memo) + paths(m, hi, memo)
	memo[n] = p
	return p
}

// reachable counts the non-terminal nodes under n.
func reachable(m Backend, n bdd.Node, seen map[bdd.Node]bool) int {
	if n == bdd.False || n == bdd.True || seen[n] {
		return 0
	}
	seen[n] = true
	_, lo, hi := m.NodeAt(n)
	return 1 + reachable(m, lo, seen) + reachable(m, hi, seen)
}

// TestMeetsBoundedByNodes: a difference of 64×64 disjoint (src, dst) cubes
// is 4096 paths over some 700 nodes, every source leading to one shared
// destination trie. A rule that wildcards both fields and misses all of
// them on the protocol has to exhaust it, and does so reading each node at
// most once, where a memo-less intersection visits it once per path.
// Missing on the port instead adds only the bounded port descent.
func TestMeetsBoundedByNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := rng.Perm(maxID + 1)[:128] // 64 sources, 64 destinations, all distinct
	var cubes []rule.Rule
	for _, s := range ids[:64] {
		for _, d := range ids[64:] {
			r := allowRule(1, object.ID(s), object.ID(d), 80)
			r.Match.Proto = rule.ProtoTCP
			cubes = append(cubes, r)
		}
	}
	m := &readCounter{applyBackend: bdd.NewManager(NumVars)}
	diff, err := compileSemantics(m, cubes)
	if err != nil {
		t.Fatal(err)
	}
	nodes := reachable(m.applyBackend, diff, map[bdd.Node]bool{})
	npaths := paths(m.applyBackend, diff, map[bdd.Node]int{})
	if npaths != len(cubes) || nodes*2 > npaths {
		t.Fatalf("diagram has %d nodes and %d paths; want %d paths over far fewer nodes", nodes, npaths, len(cubes))
	}

	w := &meetWalk{m: m}
	wide := rule.Match{VRF: 1, WildcardSrc: true, WildcardDst: true, Proto: rule.ProtoUDP, PortHi: rule.PortMax}
	for _, tc := range []struct {
		name  string
		match rule.Match
		bound int
	}{
		{"protocol miss", wide, nodes},
		{"port miss", rule.Match{VRF: 1, WildcardSrc: true, WildcardDst: true, Proto: rule.ProtoTCP, PortLo: 81, PortHi: 90}, nodes + 2*portBits},
	} {
		enc, err := compileMatch(m, tc.match)
		if err != nil {
			t.Fatal(err)
		}
		if m.And(enc, diff) != bdd.False {
			t.Fatalf("%s: the rule must miss every cube", tc.name)
		}
		m.reads = 0
		if w.meets(rule.Rule{Match: tc.match}, diff) {
			t.Fatalf("%s: walk found a meeting point", tc.name)
		}
		t.Logf("%s: %d reads over %d nodes (%d paths)", tc.name, m.reads, nodes, npaths)
		if m.reads > tc.bound {
			t.Errorf("%s: %d reads, want at most %d", tc.name, m.reads, tc.bound)
		}
	}

	// And it still finds the one cube a narrower rule does meet.
	hit := wide
	hit.Proto, hit.WildcardSrc, hit.SrcEPG = rule.ProtoTCP, false, object.ID(ids[63])
	if !w.meets(rule.Rule{Match: hit}, diff) {
		t.Error("walk missed a rule that covers 64 cubes")
	}
}

// refAttribute is attribution as it stood before the path filter: every
// allow rule walked against the difference. It is the oracle
// TestAttributeEqualsUnfiltered holds Checker.attribute to.
func refAttribute(m Backend, rules []rule.Rule, diff bdd.Node) []rule.Rule {
	w := meetWalk{m: m}
	var hit []rule.Rule
	for _, r := range rules {
		if r.Action == rule.Allow && w.meets(r, diff) {
			hit = append(hit, r)
		}
	}
	return hit
}

// TestAttributeEqualsUnfiltered: filtered attribution names exactly the
// rules the walk-every-rule loop names, in the same order — on differences
// of random lists (wildcards in every field, overlapping port ranges,
// repeated rules), on a difference with more paths than the filter lists
// (so it is off), and on diagrams that reach True below levels they skip,
// where a path constrains almost nothing.
func TestAttributeEqualsUnfiltered(t *testing.T) {
	c := NewChecker()
	m := c.m.(*bdd.Manager)
	compare := func(name string, rules []rule.Rule, diff bdd.Node) {
		t.Helper()
		got, err := c.attribute(rules, diff)
		if err != nil {
			t.Fatal(err)
		}
		if want := refAttribute(m, rules, diff); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: filtered attribution names %d rules, the full walk %d\n got  %v\n want %v",
				name, len(got), len(want), got, want)
		}
	}

	rng := rand.New(rand.NewSource(23))
	filtered, hits := 0, 0
	for i := 0; i < 300; i++ {
		a, b := randCompileList(rng, 1+rng.Intn(40)), randCompileList(rng, 1+rng.Intn(40))
		if rng.Intn(2) == 0 { // an edit of a, the shape a real check sees
			b = append(append([]rule.Rule(nil), a[:len(a)/2]...), b[:1+rng.Intn(3)]...)
			b = append(b, a[len(a)/2:]...)
		}
		ra, err := c.semantics(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := c.semantics(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, diff := range []bdd.Node{m.Diff(ra, rb), m.Diff(rb, ra), m.Xor(ra, rb)} {
			compare("random", a, diff)
			compare("random", b, diff)
			if _, ok := diffPaths(m, diff); ok && diff != bdd.False {
				filtered++
			}
			hits += len(refAttribute(m, a, diff))
		}
	}
	if filtered == 0 || hits == 0 {
		t.Fatalf("%d filtered differences, %d attributed rules: the comparison is vacuous", filtered, hits)
	}

	// One missing rule in each of 3·maxDiffPaths groups: too many paths.
	var wide []rule.Rule
	for i := 0; i < 3*maxDiffPaths; i++ {
		wide = append(wide, allowRule(object.ID(1+i%3), object.ID(10+i), object.ID(500+i%7), uint16(80+i%2)))
	}
	wide = withDeny(wide...)
	root, err := c.semantics(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := diffPaths(m, root); ok {
		t.Fatalf("a difference over %d groups was listed within the bound of %d paths", 3*maxDiffPaths, maxDiffPaths)
	}
	compare("past the bound", wide, root)
	if got, _ := c.attribute(wide, root); len(got) != len(wide)-1 {
		t.Errorf("past the bound: %d of %d allow rules attributed", len(got), len(wide)-1)
	}

	// True below skipped levels: everything, one VRF bit, a source bit and
	// a port bit with nothing in between.
	mixed := randCompileList(rng, 60)
	for name, diff := range map[string]bdd.Node{
		"true":          bdd.True,
		"one vrf bit":   m.Cube(map[int]bool{vrfOff + vrfBits - 1: true}),
		"src and port":  m.Cube(map[int]bool{srcOff + 3: false, portOff + 9: true}),
		"dst bits only": m.Cube(map[int]bool{dstOff: false, dstOff + epgBits - 1: true}),
	} {
		compare(name, mixed, diff)
		compare(name, wide, diff)
	}
}

// TestAttributeRejectsUnencodableRule: attribution reports the encoding's
// own error for a rule it cannot represent, as the match encoder did.
func TestAttributeRejectsUnencodableRule(t *testing.T) {
	c := NewChecker()
	diff, err := c.semantics(withDeny(allowRule(1, 2, 3, 80)))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []rule.Match{
		{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80},
		{VRF: 1, SrcEPG: maxID + 1, DstEPG: 3, PortHi: rule.PortMax},
	} {
		_, err := c.attribute([]rule.Rule{allowRule(1, 2, 3, 80), {Match: bad, Action: rule.Allow}}, diff)
		if want := checkMatch(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("attribute(%v) = %v, want %v", bad, err, want)
		}
		// A deny rule is never attributed, so never encoded.
		if _, err := c.attribute([]rule.Rule{{Match: bad, Action: rule.Deny}}, diff); err != nil {
			t.Errorf("deny rule %v: %v", bad, err)
		}
	}
}

// fuzzDiagram decodes a difference: a count byte, that many literal bytes
// (variable and polarity) forming one sparse cube, then two rule lists of
// equal length whose difference is XORed with the cube — so the diagram
// has the shape of a real difference, with levels skipped wherever the
// cube cuts it.
func fuzzDiagram(m applyBackend, data []byte) (bdd.Node, error) {
	cube := bdd.False
	if len(data) > 0 {
		k := int(data[0] & 7)
		data = data[1:]
		if k > len(data) {
			k = len(data)
		}
		if k > 0 {
			lits := map[int]bool{}
			for _, b := range data[:k] {
				lits[int(b&0x7f)%NumVars] = b&0x80 != 0
			}
			cube = m.Cube(lits)
		}
		data = data[k:]
	}
	half := len(data) / 16 * 8
	a, err := compileSemantics(m, fuzzRules(data[:half]))
	if err != nil {
		return bdd.False, err
	}
	b, err := compileSemantics(m, fuzzRules(data[half:]))
	if err != nil {
		return bdd.False, err
	}
	return m.Xor(m.Diff(a, b), cube), nil
}

// FuzzMeets: the first eight bytes are the rule under test (fuzzRules'
// layout), the rest a difference (fuzzDiagram). On both engines the walk
// answers whether the rule's match BDD And-ed with the difference is
// satisfiable, or the rule is one the encoding rejects.
func FuzzMeets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 1, 2, 3, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		match := fuzzRules(data[:8])[0].Match
		for _, newM := range compileEngines {
			m := newM()
			diff, err := fuzzDiagram(m, data[8:])
			if err != nil {
				return
			}
			if checkMatch(match) != nil {
				if _, err := compileMatch(m, match); err == nil {
					t.Fatalf("oracle encoded a match checkMatch rejects: %v", match)
				}
				return
			}
			checkMeets(t, m, &meetWalk{m: m}, match, diff)
		}
	})
}
