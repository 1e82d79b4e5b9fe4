// Package equiv implements the paper's L-T equivalence checker (§III-C):
// it compares the logical rules compiled from the network policy (L-type)
// against the TCAM rules collected from a switch (T-type) by encoding both
// as reduced ordered BDDs and diffing them. When the two differ, the
// checker reports the set of missing rules — logical rules whose behaviour
// should have been deployed in the TCAM but is absent — which become the
// observations that annotate the risk models.
package equiv

import (
	"fmt"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// Field bit widths of the packet-classifier encoding. The header space is
// (VRF, source EPG class, destination EPG class, IP protocol, destination
// port), matching the TCAM rule format of the paper's Figure 2.
const (
	vrfBits   = 16
	epgBits   = 16
	protoBits = 8
	portBits  = 16

	vrfOff   = 0
	srcOff   = vrfOff + vrfBits
	dstOff   = srcOff + epgBits
	protoOff = dstOff + epgBits
	portOff  = protoOff + protoBits

	// NumVars is the total number of boolean variables in the encoding.
	NumVars = portOff + portBits
)

// maxID is the largest object ID representable in the encoding.
const maxID = 1<<vrfBits - 1

// Backend is the BDD-manager surface the checker builds on: node
// construction (Mk — rule lists compile straight to their ROBDD, see
// compile.go), the difference of two compiled roots, reading the result
// one node at a time (NodeAt is how a difference is attributed to rules,
// see meets.go), and size accounting. Its implementation is *bdd.Manager;
// the tests' map-backed oracle.RefManager satisfies it too, which is how
// the differential tests run full checker workloads on both engines and
// compare the reports byte for byte.
type Backend interface {
	Mk(level int, lo, hi bdd.Node) bdd.Node
	Diff(a, b bdd.Node) bdd.Node
	NodeAt(n bdd.Node) (level int32, lo, hi bdd.Node)
	DeltaSize() int
	CacheStats() bdd.CacheStats
}

// Checker performs BDD-based equivalence checks between rule sets. A
// Checker owns a BDD manager and memoizes the semantics roots of the
// logical lists it is handed, so reusing one Checker across many switches
// amortizes node construction. Not safe for concurrent use.
//
// A checker is either standalone (NewChecker: private manager, every
// list compiled from scratch) or a fork of a shared Base
// (Base.NewChecker): forks resolve whole-switch semantics roots, by
// canonical rule-list fingerprint, through the base's frozen memo first
// and build only what the base lacks in a private copy-on-write delta, so
// any number of concurrent forks share one node pool for the hot lists.
//
// What a checker remembers is bounded by the deployment: it has finitely
// many logical lists, and a collected list is looked up but never stored.
// Under churn a dirty check's T list is never handed over again — a memo of
// those pins one TCAM snapshot a check and is never hit. What remembers a T
// list is the caller's verdict cache, one entry a switch.
type Checker struct {
	m Backend
	// newM recreates the manager on Reset with the same kind and sizing
	// the checker was constructed with (standalone, ref-backed, or a
	// fork pre-sized to a delta budget).
	newM func() Backend
	base *Base // nil for standalone checkers
	// semMem memoizes the semantics roots of logical lists by
	// SemanticsFingerprint, so a checker re-handed one (the same switch
	// re-checked across session runs, or as the T side of a consistent
	// switch) skips the compile. Every hit is verified against the entry's
	// canonical list (SemanticsEqual), so a 64-bit collision costs a
	// private compile, never a wrong root. No entry references a T list.
	semMem map[uint64]semRoot
	// memo is the compiler's private memo of tails and tries (compile.go),
	// layered over the base's frozen one. Its nodes may sit in the delta,
	// so it lives exactly as long as the delta's node IDs do: Reset and
	// Compact drop it.
	memo compileMemo

	// Fold counters, cumulative across checks and Resets: foldBaseHits
	// answered by the shared base's frozen memo, foldLocalHits by this
	// checker's own memo, foldMisses compiled from scratch.
	foldBaseHits  int
	foldLocalHits int
	foldMisses    int

	// cacheAcc accumulates the op-cache counters of managers discarded
	// by Reset, so Stats stays cumulative like the fold counters.
	cacheAcc bdd.CacheStats
}

// semRoot is one memoized whole-list semantics fold: the frozen (or
// delta) root plus a reference to the exact rule list it canonicalizes,
// kept for collision verification on every fingerprint hit.
type semRoot struct {
	rules []rule.Rule
	node  bdd.Node
}

// NewChecker creates a standalone checker with a fresh BDD manager.
func NewChecker() *Checker {
	return NewCheckerBacked(func() Backend { return bdd.NewManager(NumVars) })
}

// NewCheckerBacked creates a standalone checker over a caller-supplied
// manager factory — the hook the differential harness uses to run a real
// checker on the map-backed reference engine. The factory is also used
// by Reset, so the checker keeps its backend kind for life.
func NewCheckerBacked(newM func() Backend) *Checker {
	return &Checker{
		m:      newM(),
		newM:   newM,
		semMem: make(map[uint64]semRoot, 64),
		memo:   compileMemo{},
	}
}

// DeltaSize returns the number of nodes this checker itself owns: the
// copy-on-write delta beyond the shared base for forks, every node for
// standalone checkers. The manager never frees nodes, so long-lived
// checkers (analysis sessions reusing one checker per worker across runs)
// watch DeltaSize and Reset past a budget — a fork's Reset can only shed
// its delta, never the base.
func (c *Checker) DeltaSize() int { return c.m.DeltaSize() }

// Stats returns the checker's cumulative counters.
func (c *Checker) Stats() CheckerStats {
	cache := c.cacheAcc
	cache.Add(c.m.CacheStats())
	return CheckerStats{
		FoldBaseHits: c.foldBaseHits, FoldLocalHits: c.foldLocalHits, FoldMisses: c.foldMisses,
		Cache: cache,
	}
}

// CheckerStats counts where one checker's whole-list semantics roots came
// from, and what its manager's op cache did.
type CheckerStats struct {
	// Deprecated: BaseHits, LocalHits and Misses counted match encodings,
	// which no longer exist; they stay 0 until bench/ stops reading them
	// (ROADMAP item 1, shims).
	BaseHits, LocalHits, Misses int

	// FoldBaseHits are whole-list semantics roots resolved from the
	// shared base's frozen semantics memo (always 0 standalone).
	FoldBaseHits int
	// FoldLocalHits were answered by the checker's own semantics memo.
	FoldLocalHits int
	// FoldMisses are semantics folds built from scratch in this checker.
	FoldMisses int

	// Cache is the manager's operation-cache hits and misses, cumulative
	// across Resets.
	Cache bdd.CacheStats
}

// Reset discards the checker's own BDD nodes and memoized semantics
// roots, returning it to its freshly constructed state: standalone
// checkers rebuild an empty manager, forks re-fork their shared base and
// lose only the delta. Checks after a Reset produce identical reports —
// only the amortized compile work is lost. Counters survive. A session
// resets a checker whose delta is over its node budget.
func (c *Checker) Reset() {
	c.cacheAcc.Add(c.m.CacheStats())
	c.m = c.newM()
	c.semMem = make(map[uint64]semRoot, 64)
	c.memo = compileMemo{}
}

// Compact runs a delta GC on the checker's manager: every memoized
// logical root is a live root, everything else in the delta — the T-side
// diagrams and the difference BDDs, dead since their checks reported — is
// dropped, and the memo is remapped to the compacted IDs. Unlike Reset it
// keeps the warm memo state: subsequent checks still resolve their logical
// side from it. Reports after a Compact are identical; ROBDD canonicity only
// cares that each memoized function keeps a consistent ID, not which ID.
// The compiler's memo names delta nodes by ID too; it is dropped, not
// remapped, and refills from the compiles that follow.
//
// Compact returns false (and does nothing) when the backend does not
// support compaction (the map-backed reference manager).
//
// Deprecated: no session compacts — a checker memoizes only the logical
// lists its base lacks, so a compaction kept nothing on any workload, and an
// over-budget checker is Reset instead. Compact stays until bench/ stops
// timing it (ROADMAP item 1, shims).
func (c *Checker) Compact() (bdd.CompactStats, bool) {
	m, ok := c.m.(*bdd.Manager)
	if !ok {
		return bdd.CompactStats{}, false
	}
	roots := make([]bdd.Node, 0, len(c.semMem))
	for _, e := range c.semMem {
		roots = append(roots, e.node)
	}
	remap, stats := m.CompactDelta(roots)
	for k, e := range c.semMem {
		e.node = remap.Node(e.node)
		c.semMem[k] = e
	}
	c.memo = compileMemo{}
	return stats, true
}

// Report is the outcome of one L-T equivalence check. Its rules are the
// checked lists' own, by value, each sharing its provenance slice with the
// list it came from (see rule.Rule): read-only, like the lists.
type Report struct {
	// Equivalent is true when the logical and deployed rules enforce
	// exactly the same behaviour.
	Equivalent bool

	// MissingRules lists the logical rules (with provenance) whose allowed
	// behaviour is at least partially absent from the TCAM. These are the
	// paper's "missing rules" used to augment risk models.
	MissingRules []rule.Rule

	// ExtraRules lists deployed rules that allow behaviour the policy does
	// not permit (e.g. corrupted entries matching the wrong traffic).
	ExtraRules []rule.Rule
}

// Check compares logical rules against deployed rules. Both slices are
// interpreted in match order (priority descending); callers should pass
// them as produced by the compiler and the TCAM snapshot respectively.
func (c *Checker) Check(logical, deployed []rule.Rule) (*Report, error) {
	lAllowed, err := c.semantics(logical)
	if err != nil {
		return nil, fmt.Errorf("encode logical rules: %w", err)
	}
	tAllowed, err := c.collected(deployed)
	if err != nil {
		return nil, fmt.Errorf("encode deployed rules: %w", err)
	}

	// ROBDDs are canonical: equal behaviour is equal roots.
	rep := &Report{Equivalent: lAllowed == tAllowed}
	if rep.Equivalent {
		return rep, nil
	}
	// should-allow but doesn't, and allows but shouldn't
	if rep.MissingRules, err = c.attribute(logical, c.m.Diff(lAllowed, tAllowed)); err != nil {
		return nil, err
	}
	if rep.ExtraRules, err = c.attribute(deployed, c.m.Diff(tAllowed, lAllowed)); err != nil {
		return nil, err
	}
	return rep, nil
}

// attribute returns the allow rules whose match meets the header space
// diff. Each candidate is tested by walking diff under the rule's
// constraints (meets.go), which only reads the diagram: attributing a
// difference to rules adds no node to the checker's manager and keeps no
// per-match state. The candidates are the rules on one of diff's paths
// through the VRF/src/dst bits, so a k-rule edit walks O(k) rules.
func (c *Checker) attribute(rules []rule.Rule, diff bdd.Node) ([]rule.Rule, error) {
	if diff == bdd.False {
		return nil, nil
	}
	paths, filtered := diffPaths(c.m, diff)
	w := meetWalk{m: c.m}
	var hit []rule.Rule
	for _, r := range rules {
		if r.Action != rule.Allow {
			continue
		}
		if err := checkMatch(r.Match); err != nil {
			return nil, err
		}
		if filtered && !onPath(paths, r.Match) {
			continue
		}
		if w.meets(r, diff) {
			hit = append(hit, r)
		}
	}
	return hit, nil
}

// semantics resolves the whole-list allowed-set BDD of a logical rule list
// (resolve) and remembers a root it had to compile.
func (c *Checker) semantics(rules []rule.Rule) (bdd.Node, error) {
	fp := SemanticsFingerprint(rules)
	n, compiled, err := c.resolve(fp, rules)
	if _, occupied := c.semMem[fp]; compiled && !occupied {
		c.semMem[fp] = semRoot{rules: rules, node: n}
	}
	return n, err
}

// collected resolves a collected (T) list the same way and stores nothing
// (see Checker): its root lives in the delta until the next Compact, and
// byte-equal drifted lists each compile, into one diagram.
func (c *Checker) collected(rules []rule.Rule) (bdd.Node, error) {
	n, _, err := c.resolve(SemanticsFingerprint(rules), rules)
	return n, err
}

// resolve finds or builds a prioritized rule list's root, keyed by its
// canonical SemanticsFingerprint: the shared base's frozen semantics memo
// first (whole-switch roots warmed at base build time), then the checker's
// own memo, then a fresh compile into the checker's manager, which it
// reports (the Fold* counters keep their names from the apply-based fold
// the compile replaced). Every memo hit is verified against the entry's
// canonical list, so a fingerprint collision falls through to a private
// compile rather than reusing the wrong root. Resolving through the memos
// makes checking a switch whose rule list duplicates an already-warmed one
// — or a consistent switch's TCAM side, which shares its logical list's
// semantics key — a list scan. A list that misses both memos still meets
// the base below the root: the compile interns through the fork's unique
// tables, so every subtree it shares with a warmed list resolves to its
// frozen node and only the paths its edits changed land in the delta.
func (c *Checker) resolve(fp uint64, rules []rule.Rule) (n bdd.Node, compiled bool, err error) {
	if c.base != nil {
		if e, ok := c.base.semMem[fp]; ok && SemanticsEqual(e.rules, rules) {
			c.foldBaseHits++
			return e.node, false, nil
		}
	}
	if e, ok := c.semMem[fp]; ok && SemanticsEqual(e.rules, rules) {
		c.foldLocalHits++
		return e.node, false, nil
	}
	var frozen compileMemo
	if c.base != nil {
		frozen = c.base.memo
	}
	if n, err = compileMemoized(c.m, rules, frozen, c.memo); err != nil {
		return bdd.False, false, err
	}
	c.foldMisses++
	return n, true, nil
}
