// Frozen encoding base: the whole-switch semantics roots of a
// deployment's logical rule lists, built once by the direct compiler
// (compile.go) in one BDD manager and frozen into an immutable snapshot —
// exactly what a warm store writes and reads back. No check reads it: Check
// (check.go) builds no BDD. A fork of it (the tests' reference checker,
// and bench/) compiles every list it checks, interning through the
// snapshot's unique table, so every subtree a list shares with a frozen
// one resolves to the frozen node.

package equiv

import (
	"slices"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// Base is a frozen, immutable encoding base: a BDD snapshot and one
// whole-list semantics root per rule list it was built from, in the order
// the lists were handed over (a session hands its deployment's logical
// lists in ascending switch order). It holds nothing else, so a base built
// here and the one the store decodes from its file are the same value. A
// Base is safe for concurrent use by any number of checker forks — nothing
// ever mutates it; build a new Base when the deployment's rules change.
type Base struct {
	snap *bdd.Snapshot
	// roots[i] is the i-th list's root, NoRoot for a list that does not
	// encode. Lists that compile alike share one root.
	roots []bdd.Node
	// distinct is the number of distinct roots, NoRoot aside.
	distinct int
}

// NoRoot is the root a Base holds for a list that does not encode (an
// out-of-range ID, an inverted port range) rather than failing the build:
// the check of that list reports the error with its switch.
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

// NewChecker forks the base: the returned checker compiles every list it
// checks in its private copy-on-write delta, interning through the frozen
// snapshot. Forking is O(1). The fork's delta tables are pre-sized from
// the base's observed load. It is the one way to get a checker: a fork of
// NewBaseWith() starts from nothing. Only the tests and bench/ fork a
// base; it stays until bench/ stops calling it (ROADMAP item 1, shims).
func (b *Base) NewChecker() *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFrom(b.snap) })
}

// NewCheckerSized is NewChecker with the fork's node array and tables
// pre-sized for an explicit delta-node count; Reset keeps the sizing. It
// is retained only because bench/ still calls it: every other fork is
// sized from the base, and pre-sizing bought nothing.
func (b *Base) NewCheckerSized(deltaNodes int) *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFromSized(b.snap, deltaNodes) })
}

func (b *Base) newChecker(newM func() Backend) *Checker {
	return &Checker{m: newM(), newM: newM, memo: compileMemo{}}
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

// CollectMatches adds the distinct matches of rules into set.
//
// Deprecated: no base build gathers matches any more. It stays until
// bench/ stops calling it (ROADMAP item 1, shims).
func CollectMatches(set map[rule.Match]struct{}, rules []rule.Rule) {
	for _, r := range rules {
		set[r.Match] = struct{}{}
	}
}

// SortMatches orders matches canonically, by rule.CompareMatch.
//
// Deprecated: no base build takes matches any more. It stays until
// bench/ stops calling it (ROADMAP item 1, shims).
func SortMatches(matches []rule.Match) {
	slices.SortFunc(matches, func(a, b rule.Match) int { return rule.CompareMatch(&a, &b) })
}

// Deprecated: EncodeStats summarized a run's worker checkers, which no
// longer exist; Report.EncodeStats is always nil. The type stays until
// bench/ stops reading it (ROADMAP item 1, shims).
type EncodeStats struct {
	OpCache bdd.CacheStats
}
