// Difference attribution by walking. A rule explains a difference when
// some packet its match covers lies in the difference diagram. Nothing is
// encoded to decide that: the diagram is read under the rule's own
// constraints, field by field in the variable order compile.go emits —
// an exact field follows the bit the rule names, a wildcard field takes
// both cofactors, and the port bits are descended only while the rule's
// range cuts the block of ports the path has narrowed to. A bit the
// diagram skips is free on its side and never contradicts the rule.

package equiv

import (
	"scout/internal/bdd"
	"scout/internal/rule"
)

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
