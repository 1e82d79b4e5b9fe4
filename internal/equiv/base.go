// Frozen encoding base: the whole-switch semantics roots of a
// deployment's logical rule lists, built once by the direct compiler
// (compile.go) in one BDD manager and frozen into an immutable snapshot
// that a warm store persists and a Checker forks. No check reads it: Check
// (check.go) builds no BDD. Its unique table doubles as the memo for lists
// it never saw: a fork compiling a TCAM list interns through it and finds
// every subtree the list shares with a frozen one.

package equiv

import (
	"fmt"
	"sort"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// Base is a frozen, immutable encoding base: a BDD snapshot holding one
// whole-list semantics root per rule list it was built from, in the order
// the lists were handed over (a session hands its deployment's logical
// lists in ascending switch order). A checker finds a logical list's root
// by slice identity, so the base holds the very slices it was built from
// or bound to (RebindSemantics). A Base is safe for concurrent use by any
// number of checker forks — nothing ever mutates it; build a new Base when
// the deployment's rules change.
type Base struct {
	snap *bdd.Snapshot
	// lists are the rule lists the roots belong to (references to the
	// caller's slices, not copies) and roots[i] is lists[i]'s root, NoRoot
	// for a list that does not encode. Lists that are SemanticsEqual share
	// one root. A decoded base has roots and no lists until it is bound.
	lists [][]rule.Rule
	roots []bdd.Node
	// distinct is the number of distinct roots, NoRoot aside.
	distinct int
	// memo is the compiler's memo as the base build left it: the tails
	// and tries of every list compiled here, all frozen nodes, read by
	// every fork's compiles and never written again. Nil for a base that
	// was not built in this process (RebuildBase): the memo is not
	// persisted, and the forks' own memos fill in.
	memo compileMemo
}

// NoRoot is the root a Base holds for a list that does not encode (an
// out-of-range ID, an inverted port range). The base is a cache: the check
// of that list compiles it and reports the error with proper switch
// attribution.
const NoRoot bdd.Node = -1

// NewBase compiles each semantics rule list into its whole-list
// allowed-set BDD and freezes the result, as NewBaseWith does.
//
// Deprecated: the matches argument is ignored — a base holds no match
// encodings. It stays until bench/ stops passing it (ROADMAP item 1,
// shims); other callers use NewBaseWith.
func NewBase(_ []rule.Match, semantics ...[]rule.Rule) *Base {
	return NewBaseWith(semantics...)
}

// NewChecker forks the base: the returned checker takes the roots of the
// lists the base holds from its frozen snapshot and compiles any other
// list in its private copy-on-write delta. Forking is O(1). The fork's
// delta tables are pre-sized from the base's observed load. It is the one
// way to get a checker: a fork of NewBaseWith() compiles every list. Only
// the tests and bench/ fork a base; it stays until bench/ stops calling it
// (ROADMAP item 1, shims).
func (b *Base) NewChecker() *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFrom(b.snap) })
}

// NewCheckerSized is NewChecker with the fork's node array and tables
// pre-sized for an explicit delta-node count; Reset keeps the sizing. It
// is retained only because bench/ still calls it: every other fork is
// sized from the base — a check adds ~130 delta nodes, so pre-sizing
// bought nothing.
func (b *Base) NewCheckerSized(deltaNodes int) *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFromSized(b.snap, deltaNodes) })
}

func (b *Base) newChecker(newM func() Backend) *Checker {
	return &Checker{m: newM(), newM: newM, base: b, memo: compileMemo{}}
}

// Size returns the number of frozen BDD nodes in the base. It stays
// until bench/ stops reading it (ROADMAP item 1, shims).
func (b *Base) Size() int { return b.snap.Size() }

// NumMatches returns 0.
//
// Deprecated: a base holds no match encodings. It stays until bench/
// stops reading it (ROADMAP item 1, shims).
func (b *Base) NumMatches() int { return 0 }

// NumSemantics returns the number of distinct frozen roots. It stays
// until bench/ stops reading it (ROADMAP item 1, shims).
func (b *Base) NumSemantics() int { return b.distinct }

// RebindSemantics binds the base's roots, by position, to lists: the
// logical lists, in the order the base was built from, of the deployment
// whose fingerprint keyed it. A session binds a base it loaded from the
// warm store, and re-binds its base on a content-identical recompile at a
// new address, releasing the superseded deployment's rule slices instead
// of pinning them for the base's lifetime. The deployment fingerprint is
// the whole of the trust, as it is for a loaded verdict, which replays
// when its recomputed fingerprints match. A count of lists other than the
// base's count of roots is refused and leaves the base as it was.
//
// This is the one exception to the base's nothing-ever-mutates-it rule:
// the caller must hold off every checker fork while binding (the
// session's run lock does), exactly as it must when replacing the base
// outright.
func (b *Base) RebindSemantics(lists [][]rule.Rule) error {
	if len(lists) != len(b.roots) {
		return fmt.Errorf("equiv: bind base: %d roots, %d rule lists", len(b.roots), len(lists))
	}
	b.lists = lists
	return nil
}

// root returns the frozen root of a list the base holds, found by slice
// identity, or NoRoot.
func (b *Base) root(rules []rule.Rule) bdd.Node {
	for i, l := range b.lists {
		if rule.SameSlice(l, rules) {
			return b.roots[i]
		}
	}
	return NoRoot
}

// CollectMatches adds the distinct matches of rules into set.
//
// Deprecated: no base build gathers matches any more. It stays until
// bench/ stops calling it (ROADMAP item 1, shims).
func CollectMatches(set map[rule.Match]struct{}, rules []rule.Rule) {
	for _, r := range rules {
		set[r.Match] = struct{}{}
	}
}

// SortMatches orders matches canonically (field-by-field).
//
// Deprecated: no base build takes matches any more. It stays until
// bench/ stops calling it (ROADMAP item 1, shims).
func SortMatches(matches []rule.Match) {
	sort.Slice(matches, func(i, j int) bool { return matchLess(matches[i], matches[j]) })
}

func matchLess(a, b rule.Match) bool {
	if a.VRF != b.VRF {
		return a.VRF < b.VRF
	}
	if a.SrcEPG != b.SrcEPG {
		return a.SrcEPG < b.SrcEPG
	}
	if a.DstEPG != b.DstEPG {
		return a.DstEPG < b.DstEPG
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.PortLo != b.PortLo {
		return a.PortLo < b.PortLo
	}
	if a.PortHi != b.PortHi {
		return a.PortHi < b.PortHi
	}
	if a.WildcardVRF != b.WildcardVRF {
		return b.WildcardVRF
	}
	if a.WildcardSrc != b.WildcardSrc {
		return b.WildcardSrc
	}
	return !a.WildcardDst && b.WildcardDst
}

// Deprecated: EncodeStats summarized a run's worker checkers, which no
// longer exist; Report.EncodeStats is always nil. The type stays until
// bench/ stops reading it (ROADMAP item 1, shims).
type EncodeStats struct {
	OpCache bdd.CacheStats
}
