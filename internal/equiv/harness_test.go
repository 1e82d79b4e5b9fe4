// The package's case runner. Two generators decode rule lists from an
// oracle.Choices, so a seeded stream and a fuzzer's bytes drive the same
// code: genPair draws any pair of lists, and genUnion pairs in union form
// (inUnionForm) as compilation and collection make them, edited the ways a
// fabric edits them. Each step runs one of the layer's operations on a
// case — a logical list and a deployed one — and holds it to the
// constructions production replaced (oracle_test.go), to a first-match
// scan, or, for Check, to the BDD checker. Every test in the package is a
// case of runPair, runCases, runUnion or runSweep, or a hand-made input
// its runner cannot draw.

package equiv

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// ruleIDs is what an ID choice selects from: neighbours at both ends of
// the 16-bit space, so rules collide on fields and differ in high and low
// bits.
var ruleIDs = [16]object.ID{0, 1, 2, 3, 4, 5, 6, 7, 8, 255, 256, 257, 32767, 32768, 65534, 65535}

var ruleProtos = [5]rule.Protocol{rule.ProtoAny, rule.ProtoICMP, rule.ProtoTCP, rule.ProtoUDP, 255}

// edgePorts are the ports a port choice picks half the time: the ends of
// the axis, its middle and the well-known boundaries.
var edgePorts = [11]uint16{0, 1, 79, 80, 81, 1023, 1024, 32767, 32768, rule.PortMax - 1, rule.PortMax}

// genRules decodes n rules. Each has a wildcard in any field one time in
// four, takes its VRF and source (and half the time its destination and
// protocol) from the rule before it half the time, and has a port range
// that is full, one port, anchored at either end of the axis, adjacent
// above the previous rule's, straddling its low bound, or between two
// drawn ports; one rule in eight repeats an earlier one outright. One ID in
// 128 is one past the encoding, and one range between drawn ports in 64 is
// inverted: errors, unless a wildcard hides the ID. Two lists in three end
// in the default deny.
func genRules(c *oracle.Choices, n int) []rule.Rule {
	var rules []rule.Rule
	var prev rule.Match
	for i := 0; i < n; i++ {
		if i > 0 && c.Chance(8) {
			rules = append(rules, rules[c.Intn(len(rules))])
			continue
		}
		m := rule.Match{
			VRF: genID(c), SrcEPG: genID(c), DstEPG: genID(c), Proto: ruleProtos[c.Intn(len(ruleProtos))],
			WildcardVRF: c.Chance(4), WildcardSrc: c.Chance(4), WildcardDst: c.Chance(4),
		}
		if i > 0 && c.Chance(2) {
			m.VRF, m.WildcardVRF, m.SrcEPG, m.WildcardSrc = prev.VRF, prev.WildcardVRF, prev.SrcEPG, prev.WildcardSrc
			if c.Chance(2) {
				m.DstEPG, m.WildcardDst, m.Proto = prev.DstEPG, prev.WildcardDst, prev.Proto
			}
		}
		m.PortLo, m.PortHi = genPorts(c, prev)
		r := rule.Rule{Match: m, Action: rule.Allow, Priority: 10}
		if c.Chance(2) {
			r.Action = rule.Deny
		}
		if c.Chance(8) {
			r.Provenance = []object.Ref{object.Filter(object.ID(5000 + c.Intn(50)))}
		}
		rules, prev = append(rules, r), m
	}
	if c.Intn(3) != 0 {
		rules = append(rules, rule.DefaultDeny())
	}
	return rules
}

func genID(c *oracle.Choices) object.ID {
	if c.Chance(128) {
		return maxID + 1
	}
	return ruleIDs[c.Intn(len(ruleIDs))]
}

func genPort(c *oracle.Choices) int {
	if c.Chance(2) {
		return int(edgePorts[c.Intn(len(edgePorts))])
	}
	return int(c.Uint16())
}

func genPorts(c *oracle.Choices, prev rule.Match) (lo, hi uint16) {
	p, q := genPort(c), genPort(c)
	plo, phi := int(prev.PortLo), int(prev.PortHi)
	switch c.Intn(7) {
	case 0:
		return 0, rule.PortMax
	case 1:
		return uint16(p), uint16(p)
	case 2:
		return 0, uint16(p)
	case 3:
		return uint16(p), rule.PortMax
	case 4:
		if plo <= phi && phi < rule.PortMax {
			return uint16(phi + 1), uint16(phi + 1 + q%(rule.PortMax-phi))
		}
	case 5:
		if plo <= phi {
			return uint16(p % (plo + 1)), uint16(plo + q%(phi-plo+1))
		}
	}
	if c.Chance(64) && p != q {
		return uint16(max(p, q)), uint16(min(p, q))
	}
	return uint16(min(p, q)), uint16(max(p, q))
}

// genPair decodes a case: a logical list and the deployed list a
// collection reads back, which is the same list without provenance, an
// edit of it — rules dropped, drawn ones inserted, an ID bit flipped — or
// a list of its own.
func genPair(c *oracle.Choices) (logical, deployed []rule.Rule) {
	logical = genRules(c, 1+c.Intn(24))
	switch c.Intn(4) {
	case 0:
		for _, r := range logical {
			r.Provenance = nil
			deployed = append(deployed, r)
		}
	case 1, 2:
		deployed = slices.Clone(logical)
		for k := c.Intn(3); k > 0 && len(deployed) > 0; k-- {
			i := c.Intn(len(deployed))
			deployed = slices.Delete(deployed, i, i+1)
		}
		for _, r := range genRules(c, c.Intn(3)) {
			deployed = slices.Insert(deployed, c.Intn(len(deployed)+1), r)
		}
		if len(deployed) > 0 && c.Chance(2) {
			r := &deployed[c.Intn(len(deployed))]
			r.Match.VRF ^= 1 << c.Intn(vrfBits)
		}
	default:
		deployed = genRules(c, 1+c.Intn(24))
	}
	return logical, deployed
}

// step is one of the layer's operations run on a case and held to its
// oracle; it draws anything else it needs from c.
type step func(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule)

// runPair runs steps on one case: every step if none is named.
func runPair(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule, steps ...step) {
	t.Helper()
	if len(steps) == 0 {
		steps = []step{compileStep, memoStep, meetsStep, attributeStep, checkStep, copyStep, walkStep}
	}
	for _, s := range steps {
		s(t, c, logical, deployed)
	}
}

// runCases draws n cases from seed and runs steps on each.
func runCases(t *testing.T, seed int64, n int, steps ...step) {
	t.Helper()
	c := oracle.FromSeed(seed)
	for i := 0; i < n; i++ {
		logical, deployed := genPair(c)
		runPair(t, c, logical, deployed, steps...)
	}
}

type engine struct {
	name string
	m    applyBackend
}

// engines are the managers a list compiles in: the open-addressed one, the
// reference, and a fork of a base that froze the logical list, where
// diagrams span frozen and delta nodes.
func engines(logical []rule.Rule) []engine {
	base := bdd.NewManager(NumVars)
	_, _ = compileSemantics(base, logical) // an unencodable list leaves the base empty
	return []engine{
		{"manager", bdd.NewManager(NumVars)},
		{"reference", oracle.NewRefManager(NumVars)},
		{"fork", bdd.NewManagerFrom(base.Freeze())},
	}
}

// compileStep: on every engine, each list compiles to the very node the
// apply-based fold builds in the same manager — whichever builds first —
// or both fail with the first unencodable rule's error; the root agrees
// with a first-match scan on packets at the rules' corners; each rule's
// match chain is the oracle's node. Compiled alone into a fresh manager, a
// list interns only nodes its root reaches.
func compileStep(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	for _, rules := range [][]rule.Rule{logical, deployed} {
		for _, e := range engines(logical) {
			var got, want bdd.Node
			var gotErr, wantErr error
			if c.Chance(2) {
				got, gotErr = compileSemantics(e.m, rules)
				want, wantErr = oracleSemantics(e.m, rules)
			} else {
				want, wantErr = oracleSemantics(e.m, rules)
				got, gotErr = compileSemantics(e.m, rules)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("%s: compiled root %d (%v), fold root %d (%v)\nrules: %v", e.name, got, gotErr, want, wantErr, rules)
			}
			for _, r := range rules {
				got, gotErr := compileMatch(e.m, r.Match)
				want, wantErr := oracleMatch(e.m, r.Match)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("%s: match %v: chain node %d (%v), oracle node %d (%v)", e.name, r.Match, got, gotErr, want, wantErr)
				}
			}
			if gotErr == nil {
				checkCornerPackets(t, c, e.m, got, rules)
			}
		}
		m := bdd.NewManager(NumVars)
		if root, err := compileSemantics(m, rules); err == nil {
			reached := map[bdd.Node]bool{bdd.False: true, bdd.True: true}
			var walk func(bdd.Node)
			walk = func(n bdd.Node) {
				if !reached[n] {
					reached[n] = true
					_, lo, hi := m.NodeAt(n)
					walk(lo)
					walk(hi)
				}
			}
			if walk(root); len(reached) != m.Size() {
				t.Fatalf("%d interned nodes are unreachable from the root\nrules: %v", m.Size()-len(reached), rules)
			}
		}
	}
}

// packetAssignment spells a packet out as a variable assignment.
func packetAssignment(vrf, src, dst object.ID, proto rule.Protocol, port uint16) []bool {
	assign := make([]bool, NumVars)
	put := func(off, width int, v uint32) {
		for i := 0; i < width; i++ {
			assign[off+i] = v>>uint(width-1-i)&1 == 1
		}
	}
	put(vrfOff, vrfBits, uint32(vrf))
	put(srcOff, epgBits, uint32(src))
	put(dstOff, epgBits, uint32(dst))
	put(protoOff, protoBits, uint32(proto))
	put(portOff, portBits, uint32(port))
	return assign
}

// checkCornerPackets evaluates root on packets at the rules' corners —
// each rule's field values and their neighbours, each range's bounds and
// the ports just outside — against the first-match scan, the definition
// the BDD must agree with.
func checkCornerPackets(t *testing.T, c *oracle.Choices, m applyBackend, root bdd.Node, rules []rule.Rule) {
	t.Helper()
	allows := func(vrf, src, dst object.ID, proto rule.Protocol, port uint16) bool {
		for _, r := range rules {
			if oracle.Covers(r.Match, vrf, src, dst, proto, port) {
				return r.Action == rule.Allow
			}
		}
		return false
	}
	corners := rules
	if len(corners) == 0 {
		corners = []rule.Rule{rule.DefaultDeny()} // packets for the empty list to refuse
	}
	near := func(id object.ID) object.ID { return (id + object.ID(c.Intn(3)) - 1) & maxID }
	for i := 0; i < 4*len(corners); i++ {
		a, b := corners[c.Intn(len(corners))].Match, corners[c.Intn(len(corners))].Match
		vrf, src, dst, proto := a.VRF&maxID, b.SrcEPG&maxID, a.DstEPG&maxID, b.Proto
		if c.Chance(4) {
			vrf, src, dst = near(vrf), near(src), near(dst)
		}
		if c.Chance(4) {
			proto = ruleProtos[c.Intn(len(ruleProtos))]
		}
		for _, port := range []uint16{a.PortLo - 1, a.PortLo, a.PortHi, a.PortHi + 1, b.PortLo, b.PortHi} {
			got := oracle.Eval(m, root, packetAssignment(vrf, src, dst, proto, port))
			if want := allows(vrf, src, dst, proto, port); got != want {
				t.Fatalf("packet vrf=%d src=%d dst=%d proto=%d port=%d: BDD says %v, first match says %v\nrules: %v",
					vrf, src, dst, proto, port, got, want, rules)
			}
		}
	}
}

// memoStep holds the compiler's memo of tails and tries to the memo-less
// compile: the logical list frozen, then the deployed list, the logical one
// and half the deployed one compiled in a fork.
func memoStep(t *testing.T, _ *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	checkMemoInvisible(t, [][]rule.Rule{logical}, [][]rule.Rule{deployed, logical, deployed[:len(deployed)/2]})
}

// checkMemoInvisible compiles baseLists into one manager and, after a
// freeze, forkLists into a fork of it — once with no memo and once through
// a memo of each side's own, as NewBaseWith and a fork of its base do.
// Both must fail alike or yield the same node for every list, and intern
// the same number of nodes on each side of the freeze: same creation
// order, so same IDs. It returns the two frozen snapshots.
func checkMemoInvisible(t *testing.T, baseLists, forkLists [][]rule.Rule) (plain, memod *bdd.Snapshot) {
	t.Helper()
	pm, mm := bdd.NewManager(NumVars), bdd.NewManager(NumVars)
	same := func(stage string, p, m Backend, lists [][]rule.Rule, memo compileMemo) {
		t.Helper()
		for i, rules := range lists {
			want, wantErr := compileSemantics(p, rules)
			got, gotErr := compileMemoized(m, rules, memo)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("%s list %d: memoized root %d (%v), memo-less root %d (%v)", stage, i, got, gotErr, want, wantErr)
			}
		}
		if p.DeltaSize() != m.DeltaSize() {
			t.Fatalf("%s holds %d nodes memoized, %d memo-less", stage, m.DeltaSize(), p.DeltaSize())
		}
	}
	same("base", pm, mm, baseLists, compileMemo{})
	plain, memod = pm.Freeze(), mm.Freeze()
	same("fork", bdd.NewManagerFrom(plain), bdd.NewManagerFrom(memod), forkLists, compileMemo{})
	return plain, memod
}

// meetsStep: on every engine, against the differences of the two lists
// both ways, their Xor, a sparse cube, that cube cutting the difference,
// and the terminals, the walk answers whether each rule's match — of both
// lists and of drawn rules — And-ed with the diagram is other than False,
// interning nothing.
func meetsStep(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	drawn := genRules(c, 8)
	for _, e := range engines(logical) {
		m := e.m
		a, _ := compileSemantics(m, logical) // False when a list fails
		b, _ := compileSemantics(m, deployed)
		cube := sparseCube(m, c)
		w := &meetWalk{m: m}
		for _, diff := range []bdd.Node{bdd.False, bdd.True, m.Diff(a, b), m.Diff(b, a), m.Xor(a, b), cube, m.Xor(m.Diff(a, b), cube)} {
			for _, r := range slices.Concat(logical, deployed, drawn) {
				enc, err := compileMatch(m, r.Match)
				if err != nil {
					continue // the encoding rejects it; attribution reports that (attributeStep)
				}
				want := m.And(enc, diff) != bdd.False
				size := m.DeltaSize()
				if got := w.meets(r, diff); got != want || m.DeltaSize() != size {
					t.Fatalf("%s: match %v against node %d: walk says %v, And says %v; the walk interned %d nodes", e.name, r.Match, diff, got, want, m.DeltaSize()-size)
				}
			}
		}
	}
}

// sparseCube ORs a few cubes over drawn variables, so its nodes skip levels
// in every field and reach True below levels they skip.
func sparseCube(m applyBackend, c *oracle.Choices) bdd.Node {
	n := bdd.False
	for k := 1 + c.Intn(4); k > 0; k-- {
		lits := map[int]bool{}
		for v := 1 + c.Intn(6); v > 0; v-- {
			lits[c.Intn(NumVars)] = c.Chance(2)
		}
		n = m.Or(n, m.Cube(lits))
	}
	return n
}

// genAlternating decodes a deployed list whose rules take turns between
// two (VRF, src, dst) triples of logical's rules (of its own when logical
// is empty), A, B, A, …, each keeping the one before's triple one time in
// four, so a triple's rules are both adjacent and split by the other's.
// One rule in four wildcards the VRF, the source or the destination
// instead. Protocols, ports and actions are genRules'.
func genAlternating(c *oracle.Choices, logical []rule.Rule) []rule.Rule {
	rules := genRules(c, 2+c.Intn(12))
	from := logical
	if len(from) == 0 {
		from = rules
	}
	a, b := from[c.Intn(len(from))].Match, from[c.Intn(len(from))].Match
	for i := range rules {
		if i > 0 && !c.Chance(4) {
			a, b = b, a
		}
		m := &rules[i].Match
		m.VRF, m.SrcEPG, m.DstEPG = a.VRF, a.SrcEPG, a.DstEPG
		m.WildcardVRF, m.WildcardSrc, m.WildcardDst = false, false, false
		if c.Chance(4) {
			*[]*bool{&m.WildcardVRF, &m.WildcardSrc, &m.WildcardDst}[c.Intn(3)] = true
		}
	}
	return rules
}

// refAttribute is attribution with nothing shared between rules: every
// allow rule walked against the difference by a walk of its own.
func refAttribute(m Backend, rules []rule.Rule, diff bdd.Node) []rule.Rule {
	var hit []rule.Rule
	for _, r := range rules {
		if w := (meetWalk{m: m}); r.Action == rule.Allow && w.meets(r, diff) {
			hit = append(hit, r)
		}
	}
	return hit
}

// attributeTally counts what attributeStep compared: pairs of lists that
// both encode, and rules attributed.
type attributeTally struct{ pairs, hits int }

// attributeStep: attribution, whose walks share one record of dead nodes,
// names exactly the rules a walk of each rule of its own names, in order,
// for the case's lists and for the logical list beside a drawn alternating
// one (genAlternating), against their differences both ways, their Xor
// and a sparse cube.
func attributeStep(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	new(attributeTally).step(t, c, logical, deployed)
}

// step is attributeStep, counted.
func (n *attributeTally) step(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	n.pair(t, c, logical, deployed)
	n.pair(t, c, logical, genAlternating(c, logical))
}

// pair compares and counts attribution on one pair of lists.
func (n *attributeTally) pair(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	ch := emptyFork()
	m := ch.m.(*bdd.Manager)
	a, errA := ch.compile(logical)
	b, errB := ch.compile(deployed)
	if errA != nil || errB != nil {
		return
	}
	n.pairs++
	for _, diff := range []bdd.Node{m.Diff(a, b), m.Diff(b, a), m.Xor(a, b), sparseCube(m, c)} {
		for _, rules := range [][]rule.Rule{logical, deployed} {
			got, err := ch.attribute(rules, diff)
			if want := refAttribute(m, rules, diff); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("attribution names %v (%v), the walk of every rule %v\nrules: %v", got, err, want, rules)
			}
			n.hits += len(got)
		}
	}
}

// sweep is a run of checks on long-lived checkers, as a session's workers
// keep theirs, so the compile memo, op-cache and node state one case
// leaves meets the next: a fork of an empty base; a second one, whose op
// cache counts alike (the counts are a function of the operation stream);
// and one over the reference engine, which builds as many nodes.
type sweep struct {
	fresh, second, ref *Checker
	cases              []sweptCase
}

// sweptCase is a case a sweep checked and what its fresh checker said.
type sweptCase struct {
	logical, deployed []rule.Rule
	rep               *Report
	err               error
}

func newSweep() *sweep {
	ref := newBase().newChecker(func() Backend { return oracle.NewRefManager(NumVars) })
	return &sweep{fresh: emptyFork(), second: emptyFork(), ref: ref}
}

// checkStep checks one case on a sweep of its own, then resets it.
func checkStep(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	s := newSweep()
	s.check(t, c, logical, deployed)
	s.reset(t)
}

// runSweep checks n cases drawn from seed on one sweep, then resets it.
func runSweep(t *testing.T, seed int64, n int) {
	t.Helper()
	s := newSweep()
	runCases(t, seed, n, s.check)
	if s.reset(t) == 0 {
		t.Fatalf("no logical list of %d encoded: the re-checks after Reset compiled nothing", n)
	}
}

// check: Check(logical, deployed) reports alike, or fails alike, on each
// of the sweep's checkers, whose op-cache and node counts stay in step,
// and on a fork of a base that froze the logical list, which compiles both
// lists, the logical one to the root the base froze. When every rule but a
// final default deny is an allow and no two overlap (naiveApplies), the
// report is also the naive key difference.
func (s *sweep) check(t *testing.T, _ *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	want, wantErr := s.fresh.Check(logical, deployed)
	s.cases = append(s.cases, sweptCase{logical, deployed, want, wantErr})
	same := func(who string, ch *Checker) {
		t.Helper()
		if got, err := ch.Check(logical, deployed); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %s reports %+v (%v), a fresh checker %+v (%v)\nlogical:  %v\ndeployed: %v",
				len(s.cases)-1, who, got, err, want, wantErr, logical, deployed)
		}
	}
	same("a second checker", s.second)
	if s.second.Stats().Cache != s.fresh.Stats().Cache {
		t.Fatalf("op cache counts %+v on one checker, %+v on another", s.second.Stats().Cache, s.fresh.Stats().Cache)
	}
	same("the reference engine", s.ref)
	if size := s.fresh.m.(*bdd.Manager).Size(); s.ref.DeltaSize() != size {
		t.Fatalf("the reference engine built %d nodes, the manager %d", s.ref.DeltaSize(), size)
	}
	warm := newBase(logical)
	fork := warm.NewChecker()
	same("a fork of a warm base", fork)
	if st := fork.Stats(); wantErr == nil && (st.FoldBaseHits != 0 || st.FoldMisses != 2) {
		t.Fatalf("a fork of a base that froze the logical list: %+v, want both lists compiled", st)
	}
	if r := warm.roots[0]; r != NoRoot && !warm.snap.Contains(r) {
		t.Fatalf("the frozen root %d lives outside the base", r)
	}
	if r, err := compileMemoized(bdd.NewManagerFrom(warm.snap), logical, nil); err == nil && r != warm.roots[0] {
		t.Fatalf("the logical list compiles to %d in a fork, the base froze it at %d", r, warm.roots[0])
	}
	if wantErr == nil && naiveApplies(logical, deployed) {
		missing, extra := oracle.NaiveCheck(logical, deployed)
		if want.Equivalent != (len(missing)+len(extra) == 0) ||
			!reflect.DeepEqual(rule.KeySet(want.MissingRules), rule.KeySet(missing)) ||
			!reflect.DeepEqual(rule.KeySet(want.ExtraRules), rule.KeySet(extra)) {
			t.Fatalf("report %+v, naive difference missing %v extra %v", want, missing, extra)
		}
	}
}

// copyStep: a check whose logical list is an equal copy of the one a base
// froze, at another address, compiles both lists, as a check of the base's
// own slice does, and reports what that slice gets, byte for byte: a fork
// holds no list, so no address is special.
func copyStep(t *testing.T, _ *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	base := newBase(logical)
	want, wantErr := base.NewChecker().Check(logical, deployed)
	fork := base.NewChecker()
	got, err := fork.Check(oracle.CloneRules(logical), deployed)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("an equal copy reports %+v (%v), the base's slice %+v (%v)", got, err, want, wantErr)
	}
	if st := fork.Stats(); st.FoldBaseHits != 0 || wantErr == nil && st.FoldMisses != 2 {
		t.Fatalf("an equal copy: %+v, want both lists compiled", st)
	}
}

// walkTally counts what walkStep compared: checks that reported, those of
// them that found a difference, and those of them on a list outside union
// form (inUnionForm).
type walkTally struct{ checked, differed, beyond int }

// walkStep: Check reports what Checker.Check reports, byte for byte,
// provenance included, or fails alike. Check reads an ID only by comparing
// it, so the checker runs on an order-preserving renumbering of the pair's
// IDs into 16 bits (oracle.DenseIDs), and the pair is checked once more
// with every ID lifted past 16 bits, which the encoding refuses.
func walkStep(t *testing.T, c *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	new(walkTally).step(t, c, logical, deployed)
}

// step is walkStep, counted.
func (n *walkTally) step(t *testing.T, _ *oracle.Choices, logical, deployed []rule.Rule) {
	t.Helper()
	to, from := oracle.DenseIDs(logical, deployed)
	dl, dd := oracle.Renumber(logical, to), oracle.Renumber(deployed, to)
	want, wantErr := emptyFork().Check(dl, dd)
	lift := func(id object.ID) object.ID { return from(id) + 1<<16 }
	for _, ids := range []func(object.ID) object.ID{from, lift} {
		l, d := oracle.Renumber(dl, ids), oracle.Renumber(dd, ids)
		var w *Report
		if want != nil {
			w = &Report{Equivalent: want.Equivalent, MissingRules: oracle.Renumber(want.MissingRules, ids), ExtraRules: oracle.Renumber(want.ExtraRules, ids)}
		}
		got, err := Check(l, d)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", w) {
			t.Fatalf("Check reports %+v (%v), Checker.Check %+v (%v)\nlogical:  %v\ndeployed: %v", got, err, w, wantErr, l, d)
		}
	}
	if wantErr == nil {
		n.checked++
		if !want.Equivalent {
			n.differed++
		}
		if !inUnionForm(logical) || !inUnionForm(deployed) {
			n.beyond++
		}
	}
}

// inUnionForm reports whether a list is in union form, as every compiled
// list and every TCAM list read back from one is: no allow rule has a
// wildcard VRF, source or destination, or a rule that is not an allow
// anywhere before it. Such a list allows the union of its allow rules.
func inUnionForm(rules []rule.Rule) bool {
	for i, r := range rules {
		m := r.Match
		if r.Action != rule.Allow {
			continue
		}
		if m.WildcardVRF || m.WildcardSrc || m.WildcardDst ||
			slices.ContainsFunc(rules[:i], func(o rule.Rule) bool { return o.Action != rule.Allow }) {
			return false
		}
	}
	return true
}

// runUnion draws n union-form cases from seed (genUnion) and runs steps on
// each.
func runUnion(t *testing.T, seed int64, n int, steps ...step) {
	t.Helper()
	c := oracle.FromSeed(seed)
	for i := 0; i < n; i++ {
		logical, deployed := genUnion(c)
		runPair(t, c, logical, deployed, steps...)
	}
}

// genUnion decodes a case as a fabric makes one: a logical list of exact
// allow rules on one to four drawn triples — repeated keys, every
// protocol and ProtoAny, genPorts' ranges — in rule.Compare order (as
// compiled) half the time, ending in the default deny two times in three;
// and the deployed list collection reads back, without provenance and
// edited: rules dropped, a rule corrupted onto another drawn triple or a
// flipped bit's, a rule on a triple the logical list lacks, one split
// into two adjacent or overlapping ranges, a ProtoAny rule over a
// logical rule's range, rules moved to the end (reinstalled out of
// order), a rule repeated, the default deny evicted. One case in eight
// leaves union form on one side, as only a hand-built list does: an allow
// with a wildcard source ahead of exact rules, or an allow appended after
// the default deny.
func genUnion(c *oracle.Choices) (logical, deployed []rule.Rule) {
	triples := make([][3]object.ID, 1+c.Intn(4))
	for i := range triples {
		for f := range triples[i] {
			triples[i][f] = ruleIDs[c.Intn(len(ruleIDs))]
		}
	}
	exact := func(tr [3]object.ID, prev rule.Match) rule.Rule {
		m := rule.Match{VRF: tr[0], SrcEPG: tr[1], DstEPG: tr[2], Proto: ruleProtos[c.Intn(len(ruleProtos))]}
		lo, hi := genPorts(c, prev)
		m.PortLo, m.PortHi = min(lo, hi), max(lo, hi)
		return rule.Rule{Match: m, Action: rule.Allow, Priority: 10}
	}
	var prev rule.Match
	for i := c.Intn(16); i > 0; i-- {
		if len(logical) > 0 && c.Chance(8) {
			logical = append(logical, logical[c.Intn(len(logical))])
			continue
		}
		r := exact(triples[c.Intn(len(triples))], prev)
		if c.Chance(2) {
			r.Provenance = []object.Ref{object.Filter(object.ID(5000 + c.Intn(50)))}
		}
		logical, prev = append(logical, r), r.Match
	}
	if c.Chance(2) {
		rule.Sort(logical)
	}
	if c.Intn(3) != 0 {
		logical = append(logical, rule.DefaultDeny())
	}

	for _, r := range logical {
		r.Provenance = nil
		deployed = append(deployed, r)
	}
	tail := len(deployed) // exact allows lead; the default deny, if any, follows
	if tail > 0 && deployed[tail-1].IsDefaultDeny() {
		tail--
	}
	pick := func() int { return c.Intn(tail) }
	for k := c.Intn(3); k > 0 && tail > 0; k-- { // evicted
		i := pick()
		deployed, tail = slices.Delete(deployed, i, i+1), tail-1
	}
	if tail > 0 && c.Chance(3) { // corrupted onto another triple
		m := &deployed[pick()].Match
		if c.Chance(2) {
			tr := triples[c.Intn(len(triples))]
			m.VRF, m.SrcEPG, m.DstEPG = tr[0], tr[1], tr[2]
		} else {
			*[]*object.ID{&m.VRF, &m.SrcEPG, &m.DstEPG}[c.Intn(3)] ^= 1 << c.Intn(16)
		}
	}
	if c.Chance(4) { // on a triple of its own
		tr := [3]object.ID{ruleIDs[c.Intn(len(ruleIDs))], 40000, ruleIDs[c.Intn(len(ruleIDs))]}
		deployed, tail = slices.Insert(deployed, c.Intn(tail+1), exact(tr, prev)), tail+1
	}
	if tail > 0 && c.Chance(3) { // split in two, adjacent or overlapping
		i := pick()
		if m := deployed[i].Match; m.PortLo < m.PortHi {
			mid := m.PortLo + uint16(c.Intn(int(m.PortHi-m.PortLo)))
			lo, hi := deployed[i], deployed[i]
			lo.Match.PortHi, hi.Match.PortLo = mid, mid+1
			if c.Chance(2) {
				hi.Match.PortLo = m.PortLo + uint16(c.Intn(int(mid-m.PortLo)+1))
			}
			deployed[i] = lo
			deployed, tail = slices.Insert(deployed, i+1, hi), tail+1
		}
	}
	if tail > 0 && c.Chance(3) { // ProtoAny over a rule's range, on either side
		r := deployed[pick()]
		r.Match.Proto = rule.ProtoAny
		if c.Chance(2) {
			deployed, tail = slices.Insert(deployed, c.Intn(tail+1), r), tail+1
		} else {
			r.Provenance = []object.Ref{object.Filter(5099)}
			logical = slices.Insert(logical, 0, r)
		}
	}
	if tail > 1 && c.Chance(3) { // reinstalled behind the rest of the allows
		for k := 1 + c.Intn(3); k > 0; k-- {
			i := pick()
			r := deployed[i]
			deployed = slices.Insert(slices.Delete(deployed, i, i+1), tail-1, r)
		}
	}
	if tail > 0 && c.Chance(8) { // a repeated key
		deployed, tail = slices.Insert(deployed, c.Intn(tail+1), deployed[pick()]), tail+1
	}
	if tail < len(deployed) && c.Chance(4) { // the default deny evicted
		deployed = deployed[:tail]
	}
	if c.Chance(8) {
		side := &deployed
		if c.Chance(2) {
			side = &logical
		}
		r := exact(triples[c.Intn(len(triples))], prev)
		if c.Chance(2) { // a wildcard allow above exact rules
			r.Match.WildcardSrc = true
			*side = slices.Insert(*side, 0, r)
		} else { // an allow below a deny
			*side = append(*side, rule.DefaultDeny(), r)
		}
	}
	return logical, deployed
}

// reset resets the fresh checker and re-checks every case on it. Reset
// sheds the whole delta, reports and errors are alike again, and every
// list that encodes is compiled anew: a logical list, and a collected one
// behind a logical list that encoded. It returns the number of lists the
// re-checks compiled.
func (s *sweep) reset(t *testing.T) int {
	t.Helper()
	ch := s.fresh
	pre := ch.Stats()
	if ch.Reset(); ch.DeltaSize() != 0 {
		t.Fatalf("Reset kept %d delta nodes", ch.DeltaSize())
	}
	compiles := 0
	for i, k := range s.cases {
		if got, err := ch.Check(k.logical, k.deployed); fmt.Sprint(err) != fmt.Sprint(k.err) || !reflect.DeepEqual(got, k.rep) {
			t.Fatalf("case %d after Reset reports %+v (%v), before %+v (%v)", i, got, err, k.rep, k.err)
		}
		failed := func(side string) bool { return k.err != nil && strings.HasPrefix(k.err.Error(), "encode "+side) }
		if !failed("logical") {
			compiles++
			if !failed("deployed") {
				compiles++
			}
		}
	}
	if post := ch.Stats(); post.FoldMisses-pre.FoldMisses != compiles {
		t.Fatalf("re-checks after Reset: %d compiles, want %d", post.FoldMisses-pre.FoldMisses, compiles)
	}
	return compiles
}

// naiveApplies reports whether the naive key difference is a check's
// answer: both lists are allows, ending alike in the default deny or not,
// and any two of their allows that overlap have one match — subsets of one
// universe of disjoint rules.
func naiveApplies(logical, deployed []rule.Rule) bool {
	var allows []rule.Rule
	denies := 0
	for _, rules := range [][]rule.Rule{logical, deployed} {
		if n := len(rules); n > 0 && rules[n-1].Equal(rule.DefaultDeny()) {
			rules, denies = rules[:n-1], denies+1
		}
		for _, r := range rules {
			if r.Action != rule.Allow || slices.ContainsFunc(allows, func(o rule.Rule) bool { return o.Match != r.Match && overlaps(o.Match, r.Match) }) {
				return false
			}
			allows = append(allows, r)
		}
	}
	return denies != 1
}

func overlaps(a, b rule.Match) bool {
	field := func(wa, wb bool, x, y object.ID) bool { return wa || wb || x == y }
	return field(a.WildcardVRF, b.WildcardVRF, a.VRF, b.VRF) && field(a.WildcardSrc, b.WildcardSrc, a.SrcEPG, b.SrcEPG) &&
		field(a.WildcardDst, b.WildcardDst, a.DstEPG, b.DstEPG) &&
		(a.Proto == rule.ProtoAny || b.Proto == rule.ProtoAny || a.Proto == b.Proto) &&
		a.PortLo <= b.PortHi && b.PortLo <= a.PortHi
}

// checkPair runs every step on a hand-made case and holds the check's
// report to want, spelled as verdict spells it.
func checkPair(t *testing.T, logical, deployed []rule.Rule, want string) {
	t.Helper()
	runPair(t, oracle.FromSeed(0), logical, deployed)
	rep, err := emptyFork().Check(logical, deployed)
	if got := verdict(rep, err, logical, deployed); got != want {
		t.Errorf("report %q, want %q", got, want)
	}
}

// verdict spells a check's outcome: "equivalent", the error, or the
// positions of the missing rules in logical and of the extra rules in
// deployed (-1 for a rule that is not there, provenance included).
func verdict(rep *Report, err error, logical, deployed []rule.Rule) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if rep.Equivalent {
		return "equivalent"
	}
	positions := func(rules, in []rule.Rule) []int {
		out := []int{}
		for _, r := range rules {
			out = append(out, slices.IndexFunc(in, r.Equal))
		}
		return out
	}
	return fmt.Sprintf("missing %v extra %v", positions(rep.MissingRules, logical), positions(rep.ExtraRules, deployed))
}

func allowRule(vrf, src, dst object.ID, port uint16, prov ...object.Ref) rule.Rule {
	return rule.Rule{
		Match:      rule.Match{VRF: vrf, SrcEPG: src, DstEPG: dst, Proto: rule.ProtoTCP, PortLo: port, PortHi: port},
		Action:     rule.Allow,
		Priority:   10,
		Provenance: prov,
	}
}

func withDeny(rules ...rule.Rule) []rule.Rule {
	return append(rules, rule.DefaultDeny())
}

// newBase freezes the given rule lists' semantics roots, the warmup pass
// in miniature.
func newBase(lists ...[]rule.Rule) *Base {
	return NewBaseWith(lists...)
}

// emptyFork is a checker with nothing warmed: a fork of an empty base,
// which compiles every list it is handed.
func emptyFork() *Checker { return newBase().NewChecker() }
