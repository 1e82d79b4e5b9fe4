// The constructions production replaced, kept as the test oracles. For
// the direct compiler (compile.go): per-match field encoders built from
// Mk, Cube, And, Or and Not, and the priority fold over them. For the
// attribution walk (meets.go): the per-match BDD the checker used to memo
// (compileMatch), And-ed with the difference and compared with False. All
// run on either engine, in the same manager as the code under test, so
// "equal" below always means the same node ID.

package equiv

import (
	"fmt"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// applyBackend is what the oracle needs of a manager beyond Backend: the
// boolean algebra production no longer calls.
type applyBackend interface {
	Backend
	Cube(literals map[int]bool) bdd.Node
	And(a, b bdd.Node) bdd.Node
	Or(a, b bdd.Node) bdd.Node
	Xor(a, b bdd.Node) bdd.Node
	Not(a bdd.Node) bdd.Node
}

// oracleSemantics folds a prioritized rule list into the BDD of packets
// the list allows: the first matching rule decides, so each rule
// contributes only the header space not covered by earlier rules.
// Consecutive rules with the same action cannot shadow each other into a
// different outcome, so each maximal same-action run is collapsed with a
// balanced OR reduction (orAll) before the priority fold.
func oracleSemantics(m applyBackend, rules []rule.Rule) (bdd.Node, error) {
	allowed := bdd.False
	covered := bdd.False
	for start := 0; start < len(rules); {
		end := start
		action := rules[start].Action
		for end < len(rules) && rules[end].Action == action {
			end++
		}
		run := make([]bdd.Node, 0, end-start)
		for _, r := range rules[start:end] {
			enc, err := oracleMatch(m, r.Match)
			if err != nil {
				return bdd.False, err
			}
			run = append(run, enc)
		}
		runUnion := orAll(m, run)
		if action == rule.Allow {
			allowed = m.Or(allowed, m.Diff(runUnion, covered))
		}
		covered = m.Or(covered, runUnion)
		start = end
	}
	return allowed, nil
}

// orAll reduces nodes with a balanced binary OR tree, which keeps the
// intermediate diagrams small.
func orAll(m applyBackend, nodes []bdd.Node) bdd.Node {
	switch len(nodes) {
	case 0:
		return bdd.False
	case 1:
		return nodes[0]
	}
	mid := len(nodes) / 2
	return m.Or(orAll(m, nodes[:mid]), orAll(m, nodes[mid:]))
}

// oracleMatch builds the BDD of header tuples covered by match in m.
func oracleMatch(m applyBackend, match rule.Match) (bdd.Node, error) {
	n := bdd.True
	if !match.WildcardVRF {
		if match.VRF > maxID {
			return bdd.False, fmt.Errorf("vrf id %d exceeds %d-bit encoding", match.VRF, vrfBits)
		}
		n = m.And(n, equalsBDD(m, vrfOff, vrfBits, uint32(match.VRF)))
	}
	if !match.WildcardSrc {
		if match.SrcEPG > maxID {
			return bdd.False, fmt.Errorf("src epg id %d exceeds %d-bit encoding", match.SrcEPG, epgBits)
		}
		n = m.And(n, equalsBDD(m, srcOff, epgBits, uint32(match.SrcEPG)))
	}
	if !match.WildcardDst {
		if match.DstEPG > maxID {
			return bdd.False, fmt.Errorf("dst epg id %d exceeds %d-bit encoding", match.DstEPG, epgBits)
		}
		n = m.And(n, equalsBDD(m, dstOff, epgBits, uint32(match.DstEPG)))
	}
	if match.Proto != rule.ProtoAny {
		n = m.And(n, equalsBDD(m, protoOff, protoBits, uint32(match.Proto)))
	}
	if !(match.PortLo == 0 && match.PortHi == rule.PortMax) {
		if match.PortLo > match.PortHi {
			return bdd.False, fmt.Errorf("inverted port range %d-%d", match.PortLo, match.PortHi)
		}
		n = m.And(n, rangeBDD(m, portOff, portBits, uint32(match.PortLo), uint32(match.PortHi)))
	}
	return n, nil
}

// equalsBDD encodes field == value over width bits starting at variable
// off (most-significant bit at the lowest variable index).
func equalsBDD(m applyBackend, off, width int, value uint32) bdd.Node {
	lits := make(map[int]bool, width)
	for i := 0; i < width; i++ {
		bit := (value >> uint(width-1-i)) & 1
		lits[off+i] = bit == 1
	}
	return m.Cube(lits)
}

// rangeBDD encodes lo <= field <= hi over width bits starting at off.
func rangeBDD(m applyBackend, off, width int, lo, hi uint32) bdd.Node {
	return m.And(geBDD(m, off, width, 0, lo), leBDD(m, off, width, 0, hi))
}

// leBDD encodes field <= value considering bits [i, width).
func leBDD(m applyBackend, off, width, i int, value uint32) bdd.Node {
	if i == width {
		return bdd.True
	}
	v := m.Mk(off+i, bdd.False, bdd.True)
	rest := leBDD(m, off, width, i+1, value)
	if (value>>uint(width-1-i))&1 == 1 {
		// bit set: x_i=0 → anything below; x_i=1 → compare remaining bits
		return m.Or(m.Not(v), m.And(v, rest))
	}
	// bit clear: x_i=1 → greater, fail; x_i=0 → compare remaining bits
	return m.And(m.Not(v), rest)
}

// geBDD encodes field >= value considering bits [i, width).
func geBDD(m applyBackend, off, width, i int, value uint32) bdd.Node {
	if i == width {
		return bdd.True
	}
	v := m.Mk(off+i, bdd.False, bdd.True)
	rest := geBDD(m, off, width, i+1, value)
	if (value>>uint(width-1-i))&1 == 1 {
		// bit set: x_i=0 → smaller, fail; x_i=1 → compare remaining bits
		return m.And(v, rest)
	}
	// bit clear: x_i=1 → anything above; x_i=0 → compare remaining bits
	return m.Or(v, m.And(m.Not(v), rest))
}

// compileMatch builds, in m, the BDD of the header tuples a match covers:
// the port interval, then one node per constrained bit above it.
func compileMatch(m Backend, match rule.Match) (bdd.Node, error) {
	if err := checkMatch(match); err != nil {
		return bdd.False, err
	}
	r := reduceRule(rule.Rule{Match: match})
	n := spansBDD(m, 0, 0, []span{{r.lo, r.end}})
	for f := numIDFields - 1; f >= 0; f-- {
		if r.wild[f] {
			continue
		}
		fd := idFields[f]
		for bit := fd.width - 1; bit >= 0; bit-- {
			if r.val[f]>>uint(fd.width-1-bit)&1 == 1 {
				n = m.Mk(fd.off+bit, bdd.False, n)
			} else {
				n = m.Mk(fd.off+bit, n, bdd.False)
			}
		}
	}
	return n, nil
}

// compileSemantics is the compiler with no memo at all: every tail and
// every trie is emitted through Mk. The memoized compiles are held to it.
func compileSemantics(m Backend, rules []rule.Rule) (bdd.Node, error) {
	return compileMemoized(m, rules, nil)
}
