// Tests for the direct rule-list compiler: node identity with the
// apply-based oracle (oracle_test.go) in one manager, on both engines;
// agreement with a plain first-match scan on packets at the rules'
// corners; error parity with the encoders it replaced; and the O(churn)
// node-count gate against a frozen base.

package equiv

import (
	"fmt"
	"math/rand"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// compileIDs mixes neighbouring small IDs (so rules collide on fields)
// with values that set the top and bottom bits of the 16-bit encoding.
var compileIDs = []object.ID{0, 1, 2, 3, 4, 255, 256, 32768, 65534, 65535}

var compileProtos = []rule.Protocol{rule.ProtoAny, rule.ProtoICMP, rule.ProtoTCP, rule.ProtoUDP, 255}

// randCompileRule draws a rule with a wildcard in any field, either
// action, and a port range that is full, a single port, anchored at
// either end of the axis, or overlapping/adjacent to prev's range.
func randCompileRule(rng *rand.Rand, prev rule.Match) rule.Rule {
	id := func() object.ID { return compileIDs[rng.Intn(len(compileIDs))] }
	m := rule.Match{
		VRF: id(), SrcEPG: id(), DstEPG: id(),
		Proto:       compileProtos[rng.Intn(len(compileProtos))],
		WildcardVRF: rng.Intn(4) == 0,
		WildcardSrc: rng.Intn(4) == 0,
		WildcardDst: rng.Intn(4) == 0,
	}
	// A wildcard field's ID is never read, in range or not.
	if m.WildcardSrc && rng.Intn(2) == 0 {
		m.SrcEPG = maxID + 7
	}
	p := uint16(rng.Intn(rule.PortMax + 1))
	switch rng.Intn(7) {
	case 0:
		m.PortLo, m.PortHi = 0, rule.PortMax
	case 1:
		m.PortLo, m.PortHi = p, p
	case 2:
		m.PortLo, m.PortHi = 0, p
	case 3:
		m.PortLo, m.PortHi = p, rule.PortMax
	case 4: // adjacent above prev
		if prev.PortHi < rule.PortMax {
			m.PortLo = prev.PortHi + 1
			m.PortHi = m.PortLo + uint16(rng.Intn(int(rule.PortMax-m.PortLo)+1))
		} else {
			m.PortLo, m.PortHi = p, p
		}
	case 5: // straddles prev's lower bound
		m.PortLo = uint16(rng.Intn(int(prev.PortLo) + 1))
		m.PortHi = prev.PortLo + uint16(rng.Intn(int(prev.PortHi-prev.PortLo)+1))
	default:
		q := uint16(rng.Intn(rule.PortMax + 1))
		if q < p {
			p, q = q, p
		}
		m.PortLo, m.PortHi = p, q
	}
	r := rule.Rule{Match: m, Action: rule.Allow, Priority: 10}
	if rng.Intn(2) == 0 {
		r.Action = rule.Deny
	}
	return r
}

// randCompileList draws n rules that share fields often (each rule
// inherits fields of its predecessor half the time), repeats some
// outright, and ends in a default deny two times in three.
func randCompileList(rng *rand.Rand, n int) []rule.Rule {
	var rules []rule.Rule
	var prev rule.Match
	for i := 0; i < n; i++ {
		r := randCompileRule(rng, prev)
		if i > 0 && rng.Intn(2) == 0 {
			r.Match.VRF, r.Match.WildcardVRF = prev.VRF, prev.WildcardVRF
			r.Match.SrcEPG, r.Match.WildcardSrc = prev.SrcEPG, prev.WildcardSrc
			if rng.Intn(2) == 0 {
				r.Match.DstEPG, r.Match.WildcardDst = prev.DstEPG, prev.WildcardDst
				r.Match.Proto = prev.Proto
			}
		}
		if i > 0 && rng.Intn(8) == 0 {
			r = rules[rng.Intn(len(rules))]
		}
		rules = append(rules, r)
		prev = r.Match
	}
	if rng.Intn(3) != 0 {
		rules = append(rules, rule.DefaultDeny())
	}
	return rules
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

// firstMatchAllows is the definition the BDD must agree with.
func firstMatchAllows(rules []rule.Rule, vrf, src, dst object.ID, proto rule.Protocol, port uint16) bool {
	for _, r := range rules {
		if r.Match.Covers(vrf, src, dst, proto, port) {
			return r.Action == rule.Allow
		}
	}
	return false
}

// checkCornerPackets evaluates root on packets drawn from the rules'
// corners — each rule's field values and their neighbours, each range's
// bounds and the ports just outside — against the first-match scan.
func checkCornerPackets(t *testing.T, m applyBackend, root bdd.Node, rules []rule.Rule, rng *rand.Rand) {
	t.Helper()
	if len(rules) == 0 {
		if oracle.Eval(m, root, packetAssignment(1, 2, 3, rule.ProtoTCP, 80)) {
			t.Fatal("the empty list allows a packet")
		}
		return
	}
	near := func(id object.ID) object.ID { return (id + object.ID(rng.Intn(3)) - 1) & maxID }
	for i := 0; i < 4*len(rules); i++ {
		a, b := rules[rng.Intn(len(rules))].Match, rules[rng.Intn(len(rules))].Match
		vrf, src, dst, proto := a.VRF&maxID, b.SrcEPG&maxID, a.DstEPG&maxID, b.Proto
		if rng.Intn(4) == 0 {
			vrf, src, dst = near(vrf), near(src), near(dst)
		}
		if rng.Intn(4) == 0 {
			proto = compileProtos[rng.Intn(len(compileProtos))]
		}
		for _, port := range []uint16{a.PortLo - 1, a.PortLo, a.PortHi, a.PortHi + 1, b.PortLo, b.PortHi} {
			got := oracle.Eval(m, root, packetAssignment(vrf, src, dst, proto, port))
			if want := firstMatchAllows(rules, vrf, src, dst, proto, port); got != want {
				t.Fatalf("packet vrf=%d src=%d dst=%d proto=%d port=%d: BDD says %v, first match says %v\nrules: %v",
					vrf, src, dst, proto, port, got, want, rules)
			}
		}
	}
}

var compileEngines = map[string]func() applyBackend{
	"manager": func() applyBackend { return bdd.NewManager(NumVars) },
	"ref":     func() applyBackend { return oracle.NewRefManager(NumVars) },
}

// TestCompileEqualsFold: in one manager, the compiled root of a rule list
// is the very node the apply-based fold produces, on both engines, and
// both agree with first-match on the rules' corner packets.
func TestCompileEqualsFold(t *testing.T) {
	fixed := map[string][]rule.Rule{
		"empty":        nil,
		"default deny": {rule.DefaultDeny()},
		"allow all":    {{Match: rule.DefaultDeny().Match, Action: rule.Allow}},
		"deny shadows allow": {
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 100, PortHi: 200}, Action: rule.Deny},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 0, PortHi: rule.PortMax}, Action: rule.Allow},
		},
		"adjacent ranges merge": {
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 0, PortHi: 32767}, Action: rule.Allow},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 32768, PortHi: rule.PortMax}, Action: rule.Allow},
		},
		"wildcard above exact": {
			{Match: rule.Match{WildcardVRF: true, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}, Action: rule.Deny},
			{Match: rule.Match{VRF: 1, WildcardSrc: true, DstEPG: 3, PortLo: 0, PortHi: 1000}, Action: rule.Allow},
			{Match: rule.Match{VRF: 1, SrcEPG: 2, WildcardDst: true, Proto: rule.ProtoUDP, PortLo: 53, PortHi: 53}, Action: rule.Allow},
		},
	}
	for engine, newM := range compileEngines {
		for name, rules := range fixed {
			m := newM()
			want, err := oracleSemantics(m, rules)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compileSemantics(m, rules)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: compiled root %d, fold root %d", engine, name, got, want)
			}
		}
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 300; trial++ {
			rules := randCompileList(rng, 1+rng.Intn(24))
			// Alternate which construction interns the nodes first:
			// identity must not depend on it.
			m := newM()
			build := [2]func() (bdd.Node, error){
				func() (bdd.Node, error) { return compileSemantics(m, rules) },
				func() (bdd.Node, error) { return oracleSemantics(m, rules) },
			}
			var roots [2]bdd.Node
			for _, k := range [2]int{trial % 2, 1 - trial%2} {
				var err error
				if roots[k], err = build[k](); err != nil {
					t.Fatal(err)
				}
			}
			got, want := roots[0], roots[1]
			if got != want {
				t.Fatalf("%s trial %d: compiled root %d, fold root %d\nrules: %v", engine, trial, got, want, rules)
			}
			checkCornerPackets(t, m, got, rules, rng)
		}
	}
}

// TestCompileAddsOnlyResultNodes: compiling into a fresh manager interns
// exactly the nodes reachable from the root — no intermediate survives
// because none is ever built.
func TestCompileAddsOnlyResultNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		rules := randCompileList(rng, 1+rng.Intn(40))
		m := bdd.NewManager(NumVars)
		root, err := compileSemantics(m, rules)
		if err != nil {
			t.Fatal(err)
		}
		built := m.Size()
		_, st := m.CompactDelta([]bdd.Node{root})
		if st.Dropped != 0 {
			t.Fatalf("trial %d: %d of %d interned nodes are unreachable from the root", trial, st.Dropped, built)
		}
	}
}

// TestCompileMatchEqualsOracle: the bottom-up match chain is the node the
// And-of-field-encoders oracle produces.
func TestCompileMatchEqualsOracle(t *testing.T) {
	for engine, newM := range compileEngines {
		m := newM()
		rng := rand.New(rand.NewSource(3))
		var prev rule.Match
		for trial := 0; trial < 500; trial++ {
			match := randCompileRule(rng, prev).Match
			prev = match
			want, err := oracleMatch(m, match)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compileMatch(m, match)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: match %v: chain node %d, oracle node %d", engine, match, got, want)
			}
		}
	}
}

// TestCompileErrorParity: the compiler rejects what the encoders it
// replaced rejected, with their text, for the first offending rule in
// list order — even one a higher-priority rule shadows — and reads no ID
// behind a wildcard.
func TestCompileErrorParity(t *testing.T) {
	good := allowRule(1, 2, 3, 80)
	bigVRF := rule.Rule{Match: rule.Match{VRF: maxID + 1, SrcEPG: 2, DstEPG: 3, PortHi: rule.PortMax}, Action: rule.Allow}
	bigSrc := rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: maxID + 2, DstEPG: 3, PortHi: rule.PortMax}, Action: rule.Deny}
	bigDst := rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: maxID + 3, PortHi: rule.PortMax}, Action: rule.Allow}
	inverted := rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80}, Action: rule.Allow}
	// Two faults in one rule: the ID is reported, as the encoders did.
	bigDstInverted := rule.Rule{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: maxID + 3, PortLo: 9, PortHi: 8}, Action: rule.Allow}
	allowAll := rule.Rule{Match: rule.DefaultDeny().Match, Action: rule.Allow}

	lists := [][]rule.Rule{
		{good, bigVRF, bigSrc},
		{bigSrc, bigVRF},
		{good, bigDst, inverted},
		{inverted, bigDst},
		{bigDstInverted},
		{allowAll, inverted}, // shadowed, still rejected
		{rule.DefaultDeny(), good, bigVRF},
	}
	for i, rules := range lists {
		m := bdd.NewManager(NumVars)
		_, wantErr := oracleSemantics(m, rules)
		_, gotErr := compileSemantics(m, rules)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("list %d: compile error %v, fold error %v", i, gotErr, wantErr)
		}
		// The offender's own match fails alike.
		for _, r := range rules {
			_, wantErr := oracleMatch(m, r.Match)
			_, gotErr := compileMatch(m, r.Match)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("list %d match %v: chain error %v, oracle error %v", i, r.Match, gotErr, wantErr)
			}
		}
	}

	wild := rule.Rule{Match: rule.Match{
		VRF: maxID + 1, SrcEPG: maxID + 1, DstEPG: maxID + 1,
		WildcardVRF: true, WildcardSrc: true, WildcardDst: true,
		Proto: rule.ProtoTCP, PortLo: 443, PortHi: 443,
	}, Action: rule.Allow}
	m := bdd.NewManager(NumVars)
	want, err := oracleSemantics(m, []rule.Rule{wild})
	if err != nil {
		t.Fatalf("fold rejected out-of-range IDs behind wildcards: %v", err)
	}
	got, err := compileSemantics(m, []rule.Rule{wild})
	if err != nil {
		t.Fatalf("compile rejected out-of-range IDs behind wildcards: %v", err)
	}
	if got != want {
		t.Errorf("wildcard rule: compiled root %d, fold root %d", got, want)
	}
}

// churnList builds n allow rules over a (vrf, src, dst) grid with one to
// three disjoint port ranges per cell, ending in the default deny.
func churnList(n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		cell := i / 3
		r := allowRule(object.ID(1+cell%3), object.ID(10+cell/3%40), object.ID(100+cell/120), 0)
		r.Match.PortLo = uint16(1000 + 2000*(i%3))
		r.Match.PortHi = r.Match.PortLo + uint16(i%500)
		rules = append(rules, r)
	}
	return append(rules, rule.DefaultDeny())
}

// TestCompileChurnBoundedByEdit is the O(churn) gate, on node counts so
// it is deterministic: a fork of a base that froze a 6k-rule list compiles
// that list minus k rules into at most 2·k·NumVars delta nodes — the
// paths from the root to the k edited leaves — because every untouched
// subtree is found in the frozen unique table.
func TestCompileChurnBoundedByEdit(t *testing.T) {
	const k = 4
	full := churnList(6000)
	base := newBase(full)
	if base.NumSemantics() != 1 {
		t.Fatal("base did not freeze the list")
	}
	drop := map[int]bool{700: true, 2199: true, 3698: true, 5197: true}
	if len(drop) != k {
		t.Fatal("the edit must drop k rules")
	}
	edited := make([]rule.Rule, 0, len(full))
	for i, r := range full {
		if !drop[i] {
			edited = append(edited, r)
		}
	}

	fork := base.NewChecker()
	root, err := fork.semantics(edited)
	if err != nil {
		t.Fatal(err)
	}
	if st := fork.Stats(); st.FoldMisses != 1 {
		t.Fatalf("edited list must compile in the fork: %+v", st)
	}
	if base.snap.Contains(root) {
		t.Fatal("edited list resolved to a frozen root; the edit changed nothing")
	}
	if got, bound := fork.DeltaSize(), 2*k*NumVars; got == 0 || got > bound {
		t.Errorf("compiling a %d-rule edit of a %d-rule frozen list added %d delta nodes, want 1..%d",
			k, len(full), got, bound)
	}

	// The same list in a fork of an empty base pays for all of it.
	cold := newBase().NewChecker()
	if _, err := cold.semantics(edited); err != nil {
		t.Fatal(err)
	}
	if cold.DeltaSize() < 10*fork.DeltaSize() {
		t.Errorf("cold compile built %d nodes, warm %d: the frozen base is not being reused",
			cold.DeltaSize(), fork.DeltaSize())
	}
}
