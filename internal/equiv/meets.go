// Difference attribution by walking. A rule explains a difference when
// some packet its match covers lies in the difference diagram. Nothing is
// encoded to decide that: the diagram is read under the rule's own
// constraints, field by field in the variable order compile.go emits —
// an exact field follows the bit the rule names, a wildcard field takes
// both cofactors, and the port bits are descended only while the rule's
// range cuts the block of ports the path has narrowed to. A bit the
// diagram skips is free on its side and never contradicts the rule.
//
// The walk decides; a filter in front of it keeps it from being asked
// about every rule. A k-rule edit leaves a difference with a handful of
// paths through the 48 VRF/src/dst bits, and a rule whose exact fields
// contradict every one of them cannot meet it: diffPaths lists those
// paths once per difference and only the rules compatible with one are
// walked. A difference with more than maxDiffPaths of them is not
// filtered at all.

package equiv

import (
	"scout/internal/bdd"
	"scout/internal/rule"
)

// maxDiffPaths bounds the paths diffPaths lists. A rule off every path is
// tested against each of them, a few instructions a path, so the bound is
// where that scan starts to cost what the walk it spares does.
const maxDiffPaths = 128

// idPath is one path of a difference through the VRF/src/dst variables:
// mask has a bit for every variable the path tests, val the branch taken
// there. Variable v sits at bit protoOff-1-v, so a field's value packs in
// as it is written (idBits).
type idPath struct{ val, mask uint64 }

// idBits packs a match's VRF/src/dst the way idPath does: exact has the
// bits of the fields the match does not wildcard, val their values (a
// wildcard field's ID is never read). The match must have passed
// checkMatch.
func idBits(m rule.Match) (val, exact uint64) {
	const field = uint64(maxID)
	if !m.WildcardVRF {
		val |= uint64(m.VRF) << (protoOff - srcOff)
		exact |= field << (protoOff - srcOff)
	}
	if !m.WildcardSrc {
		val |= uint64(m.SrcEPG) << (protoOff - dstOff)
		exact |= field << (protoOff - dstOff)
	}
	if !m.WildcardDst {
		val |= uint64(m.DstEPG)
		exact |= field
	}
	return val, exact
}

// diffPaths lists the paths of diff through the VRF/src/dst variables
// that do not end in False. ok is false when there are more than
// maxDiffPaths of them.
func diffPaths(m Backend, diff bdd.Node) (paths []idPath, ok bool) {
	var walk func(n bdd.Node, val, mask uint64) bool
	walk = func(n bdd.Node, val, mask uint64) bool {
		if n == bdd.False {
			return true
		}
		if n != bdd.True {
			if level, lo, hi := m.NodeAt(n); level < protoOff {
				bit := uint64(1) << uint(protoOff-1-level)
				return walk(lo, val, mask|bit) && walk(hi, val|bit, mask|bit)
			}
		}
		if len(paths) == maxDiffPaths {
			return false
		}
		paths = append(paths, idPath{val, mask})
		return true
	}
	ok = walk(diff, 0, 0)
	return paths, ok
}

// onPath reports whether m agrees with some path wherever both name a
// bit. A match the walk accepts always does: the packet that witnesses it
// follows one of the paths.
func onPath(paths []idPath, m rule.Match) bool {
	val, exact := idBits(m)
	for _, p := range paths {
		if (val^p.val)&p.mask&exact == 0 {
			return true
		}
	}
	return false
}

// meetWalk tests rules against difference diagrams in one manager. It
// only reads nodes (Backend.NodeAt), so attribution interns nothing.
type meetWalk struct {
	m Backend
	r compiledRule
	// wide: r has a wildcard field, so paths that split on it can
	// converge again and reach a node twice. dead then records the nodes
	// found to hold nothing r covers, which bounds the walk by the
	// diagram's nodes rather than its paths. An exact rule follows one
	// path down to the port bits and needs no record.
	wide bool
	dead map[bdd.Node]struct{}
}

// meets reports whether r's match covers some packet in diff. The match
// must have passed checkMatch.
func (w *meetWalk) meets(r rule.Rule, diff bdd.Node) bool {
	w.r = reduceRule(r)
	w.wide = w.r.wild != [numIDFields]bool{}
	clear(w.dead)
	return w.ids(diff)
}

// ids walks n through the exact-or-wildcard fields.
func (w *meetWalk) ids(n bdd.Node) bool {
	if n == bdd.False {
		return false
	}
	if n == bdd.True {
		// Every remaining bit is free and the port range is not empty.
		return true
	}
	if w.wide {
		if _, dead := w.dead[n]; dead {
			return false
		}
	}
	level, lo, hi := w.m.NodeAt(n)
	f := 0
	for f < numIDFields && int(level) >= idFields[f].off+idFields[f].width {
		f++
	}
	var ok bool
	switch {
	case f == numIDFields:
		ok = w.ports(n, 0, 0)
	case w.r.wild[f]:
		ok = w.ids(lo) || w.ids(hi)
	case w.r.val[f]>>uint(idFields[f].off+idFields[f].width-1-int(level))&1 == 1:
		ok = w.ids(hi)
	default:
		ok = w.ids(lo)
	}
	if !ok && w.wide {
		if w.dead == nil {
			w.dead = make(map[bdd.Node]struct{})
		}
		w.dead[n] = struct{}{}
	}
	return ok
}

// ports walks n, which sits at or below port bit `bit`, given that the
// path so far admits exactly the ports [base, base+portSpace>>bit). Only
// a block the rule's range cuts is descended, and blocks of one depth are
// disjoint, so at most two per depth are: the walk reads at most
// 2·portBits nodes however the diagram branches.
func (w *meetWalk) ports(n bdd.Node, bit int, base uint32) bool {
	size := portSpace >> uint(bit)
	switch {
	case n == bdd.False, base+size <= w.r.lo, w.r.end <= base:
		return false
	case n == bdd.True, w.r.lo <= base && base+size <= w.r.end:
		// A non-False node has a satisfying path, and whichever port it
		// picks inside the block the range covers.
		return true
	}
	lo, hi := n, n
	if level, l, h := w.m.NodeAt(n); int(level) == portOff+bit {
		lo, hi = l, h
	}
	return w.ports(lo, bit+1, base) || w.ports(hi, bit+1, base+size/2)
}
