// Shared encoding base for the check-stage fan-out: the whole-switch
// semantics roots of a deployment's most duplicated rule-list
// fingerprints are compiled once into one BDD manager, which is then
// frozen into an immutable snapshot that every worker's checker forks.
// Without it, each check-stage worker owns a private manager and rebuilds
// every semantics root shared across its switches — duplicated node
// construction that grows with the worker count.
//
// The roots are built by the direct compiler (compile.go), so the
// snapshot holds result nodes only, and its unique table doubles as the
// memo for lists the base never saw: a fork compiling a drifted switch's
// TCAM list interns through it and finds every subtree the list shares
// with a frozen one. Nothing per match is kept: a difference is
// attributed to rules by walking it (meets.go).

package equiv

import (
	"sort"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// Base is a frozen, immutable encoding base: a BDD snapshot holding the
// warmed whole-switch semantics roots, plus the memo mapping each
// canonical rule-list fingerprint to its frozen node. A Base is safe for
// concurrent use by any number of checker forks — nothing ever mutates
// it; build a new Base when the deployment's rules change.
type Base struct {
	snap *bdd.Snapshot
	// semMem entries carry the canonical rule list alongside the frozen
	// root (references to the caller's slices, not copies); checker hits
	// verify against it so fingerprint collisions never alias roots.
	semMem map[uint64]semRoot
	// memo is the compiler's memo as the base build left it: the tails
	// and tries of every list compiled here, all frozen nodes, read by
	// every fork's compiles and never written again. Nil for a base that
	// was not built in this process (RebuildBase): the memo is not
	// persisted, and the forks' own memos fill in.
	memo compileMemo
}

// NewBase compiles each semantics rule list into its whole-list
// allowed-set BDD (keyed by SemanticsFingerprint, duplicates collapsed)
// and freezes the result. Lists that cannot be encoded (out-of-range IDs,
// inverted port ranges) are skipped rather than failing the build: the
// base is a cache, and the per-switch check that owns the offending rule
// reports the error with proper switch attribution.
//
// Callers wanting a deterministic base across processes should pass the
// lists in a canonical order (the warmup ranks them by duplication count
// with a fingerprint tiebreak); within one process any order yields an
// equivalent base.
//
// Deprecated: the matches argument is ignored — a base holds no match
// encodings. It stays until bench/ stops passing it (ROADMAP item 1,
// shims); other callers use NewBaseWith.
func NewBase(_ []rule.Match, semantics ...[]rule.Rule) *Base {
	return NewBaseWith(nil, semantics...)
}

// NewChecker forks the base: the returned checker resolves every warmed
// whole-switch semantics root from the base's frozen memo and compiles
// only novel lists in its private copy-on-write delta. Forking is O(1);
// use one fork per worker goroutine. The fork's
// delta tables are pre-sized from the base's observed load.
func (b *Base) NewChecker() *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFrom(b.snap) })
}

// NewCheckerSized is NewChecker with the fork's node array and tables
// pre-sized for an explicit delta-node count; Reset keeps the sizing. It
// is retained only because bench/ still calls it: sessions size their
// forks from the base like everyone else — a check adds ~130 delta nodes,
// so pre-sizing for a share of the node budget bought nothing.
func (b *Base) NewCheckerSized(deltaNodes int) *Checker {
	return b.newChecker(func() Backend { return bdd.NewManagerFromSized(b.snap, deltaNodes) })
}

func (b *Base) newChecker(newM func() Backend) *Checker {
	return &Checker{
		m:      newM(),
		newM:   newM,
		base:   b,
		semMem: make(map[uint64]semRoot, 64),
		memo:   compileMemo{},
	}
}

// Size returns the number of frozen BDD nodes in the base.
func (b *Base) Size() int { return b.snap.Size() }

// NumMatches returns 0.
//
// Deprecated: a base holds no match encodings. It stays until bench/
// stops reading it (ROADMAP item 1, shims).
func (b *Base) NumMatches() int { return 0 }

// NumSemantics returns the number of frozen whole-switch semantics roots.
func (b *Base) NumSemantics() int { return len(b.semMem) }

// RebindSemantics re-points the frozen semantics entries' canonical
// rule-list references at the given deployment's slices, for a caller
// that verified the deployment fingerprint-matches the one the base was
// built from (a session keeping its base across a content-identical
// recompile at a new address). The frozen BDD content is untouched —
// only the collision-verification references move, releasing the
// superseded deployment's rule slices instead of pinning them for the
// base's lifetime.
//
// This is the one exception to the base's nothing-ever-mutates-it rule:
// the caller must hold off every checker fork while rebinding (the
// session's run lock does), exactly as it must when replacing the base
// outright.
func (b *Base) RebindSemantics(bySwitch map[object.ID][]rule.Rule) {
	for _, rules := range bySwitch {
		fp := SemanticsFingerprint(rules)
		if e, ok := b.semMem[fp]; ok && SemanticsEqual(e.rules, rules) {
			e.rules = rules
			b.semMem[fp] = e
		}
	}
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

// EncodeStats aggregates the encoding work behind one analysis run:
// where the BDD nodes live (shared base vs per-checker deltas) and where
// whole-list semantics roots were resolved from. It is the assertion
// surface for the shared-base design — cross-worker duplicated node
// construction shows up as DeltaNodes growth with the worker count.
//
// Units caveat for session-produced reports: a session's checkers
// persist across runs, so the hit/miss counters aggregated from them
// are cumulative over the session's lifetime. Per-run fold attribution
// lives in the session's SessionStats instead.
type EncodeStats struct {
	// Checkers is the number of checkers aggregated (the worker count).
	Checkers int
	// BaseNodes is the size of the shared frozen base.
	BaseNodes int
	// BaseSemantics is the number of whole-switch semantics roots frozen
	// in the base (the top-K most duplicated rule-list fingerprints).
	BaseSemantics int
	// DeltaNodes sums every checker's private node count.
	DeltaNodes int
	// FoldBaseHits, FoldLocalHits, and FoldMisses sum the checkers'
	// cumulative whole-list semantics counters: folds resolved from the
	// base's frozen roots, from a checker's own memo, or built from
	// scratch.
	FoldBaseHits  int
	FoldLocalHits int
	FoldMisses    int

	// OpCache sums the checkers' BDD operation-cache hits and misses.
	// Like the fold counters, cumulative over each checker's lifetime
	// for session-produced reports.
	OpCache bdd.CacheStats
}

// FoldHits is the total memo-resolved whole-list folds (base + local).
func (s *EncodeStats) FoldHits() int { return s.FoldBaseHits + s.FoldLocalHits }

// AggregateEncodeStats sums the encoding counters of a run's checkers
// over the base they fork.
func AggregateEncodeStats(base *Base, checkers []*Checker) *EncodeStats {
	st := &EncodeStats{
		Checkers:      len(checkers),
		BaseNodes:     base.Size(),
		BaseSemantics: base.NumSemantics(),
	}
	for _, c := range checkers {
		st.DeltaNodes += c.DeltaSize()
		cs := c.Stats()
		st.FoldBaseHits += cs.FoldBaseHits
		st.FoldLocalHits += cs.FoldLocalHits
		st.FoldMisses += cs.FoldMisses
		st.OpCache.Add(cs.Cache)
	}
	return st
}
