// Package equiv implements the paper's L-T equivalence checker (§III-C):
// it compares the logical rules compiled from the network policy (L-type)
// against the TCAM rules collected from a switch (T-type) by encoding both
// as reduced ordered BDDs and diffing them. When the two differ, the
// checker reports the set of missing rules — logical rules whose behaviour
// should have been deployed in the TCAM but is absent — which become the
// observations that annotate the risk models.
//
// Every checker forks a frozen Base (base.go) that holds the compiled
// logical lists of one deployment, so a check compiles only what the base
// lacks: a drifted switch's TCAM list.
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

// Checker performs BDD-based equivalence checks between rule sets. Every
// checker is a fork of a shared Base (Base.NewChecker): it resolves
// whole-switch semantics roots, by canonical rule-list fingerprint, through
// the base's frozen memo and compiles any other list in a private
// copy-on-write delta, so any number of concurrent forks share one node
// pool for the deployment's lists. A fork of an empty base compiles every
// list it is handed. Not safe for concurrent use.
//
// A checker remembers no whole list: the base holds every logical list of
// its deployment, and a collected list is looked up but never stored. Under
// churn a dirty check's T list is never handed over again — a memo of those
// pins one TCAM snapshot a check and is never hit. What remembers a T list
// is the caller's verdict cache, one entry a switch.
type Checker struct {
	m Backend
	// newM recreates the manager on Reset with the same kind and sizing
	// the fork was constructed with.
	newM func() Backend
	base *Base
	// memo is the compiler's private memo of tails and tries (compile.go),
	// layered over the base's frozen one. Its nodes may sit in the delta,
	// so it lives exactly as long as the delta's node IDs do: Reset and
	// Compact drop it.
	memo compileMemo

	// Fold counters, cumulative across checks and Resets: foldBaseHits
	// answered by the shared base's frozen memo, foldMisses compiled in
	// this checker.
	foldBaseHits int
	foldMisses   int

	// cacheAcc accumulates the op-cache counters of managers discarded
	// by Reset, so Stats stays cumulative like the fold counters.
	cacheAcc bdd.CacheStats
}

// DeltaSize returns the number of nodes this checker itself owns: the
// copy-on-write delta beyond the shared base. The manager never frees
// nodes, so long-lived checkers (analysis sessions reusing one checker per
// worker across runs) watch DeltaSize and Reset past a budget — a Reset
// can only shed the delta, never the base.
func (c *Checker) DeltaSize() int { return c.m.DeltaSize() }

// Stats returns the checker's cumulative counters.
func (c *Checker) Stats() CheckerStats {
	cache := c.cacheAcc
	cache.Add(c.m.CacheStats())
	return CheckerStats{FoldBaseHits: c.foldBaseHits, FoldMisses: c.foldMisses, Cache: cache}
}

// CheckerStats counts where one checker's whole-list semantics roots came
// from, and what its manager's op cache did.
type CheckerStats struct {
	// Deprecated: BaseHits, LocalHits and Misses counted match encodings,
	// which no longer exist, and FoldLocalHits a checker-local semantics
	// memo, which no longer exists; they stay 0 until bench/ stops reading
	// them (ROADMAP item 1, shims).
	BaseHits, LocalHits, Misses, FoldLocalHits int

	// FoldBaseHits are whole-list semantics roots resolved from the
	// shared base's frozen semantics memo.
	FoldBaseHits int
	// FoldMisses are semantics folds built from scratch in this checker.
	FoldMisses int

	// Cache is the manager's operation-cache hits and misses, cumulative
	// across Resets.
	Cache bdd.CacheStats
}

// Reset discards the checker's delta and its compile memo, re-forking the
// shared base. Checks after a Reset produce identical reports — only the
// amortized compile work is lost. Counters survive. A session resets a
// checker whose delta is over its node budget.
func (c *Checker) Reset() {
	c.cacheAcc.Add(c.m.CacheStats())
	c.m = c.newM()
	c.memo = compileMemo{}
}

// Compact runs a delta GC on the checker's manager with no live root: a
// checker keeps no whole-list root of its own, so the T-side diagrams and
// the difference BDDs, dead since their checks reported, are all the delta
// holds and all of it is dropped. The compiler's memo names delta nodes by
// ID; it is dropped too, and refills from the compiles that follow.
// Reports after a Compact are identical.
//
// Compact returns false (and does nothing) when the backend does not
// support compaction (the map-backed reference manager).
//
// Deprecated: no session compacts — an over-budget checker is Reset
// instead. Compact stays until bench/ stops timing it (ROADMAP item 1,
// shims).
func (c *Checker) Compact() (bdd.CompactStats, bool) {
	m, ok := c.m.(*bdd.Manager)
	if !ok {
		return bdd.CompactStats{}, false
	}
	_, stats := m.CompactDelta(nil)
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
// When they differ, every allow rule of each list is walked against the
// packets its side allows and the other does not (attribute), however
// large that difference is.
func (c *Checker) Check(logical, deployed []rule.Rule) (*Report, error) {
	lAllowed, err := c.resolve(logical)
	if err != nil {
		return nil, fmt.Errorf("encode logical rules: %w", err)
	}
	tAllowed, err := c.resolve(deployed)
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
// diff, in list order. Every allow rule is tested by walking diff under
// the rule's constraints (meets.go), which only reads the diagram:
// attributing a difference to rules adds no node to the checker's manager
// and keeps no per-match state. Consecutive rules on one exact
// VRF/src/dst triple share the walk down to it.
func (c *Checker) attribute(rules []rule.Rule, diff bdd.Node) ([]rule.Rule, error) {
	if diff == bdd.False {
		return nil, nil
	}
	w := meetWalk{m: c.m}
	var hit []rule.Rule
	for _, r := range rules {
		if r.Action != rule.Allow {
			continue
		}
		if err := checkMatch(r.Match); err != nil {
			return nil, err
		}
		if w.meets(r, diff) {
			hit = append(hit, r)
		}
	}
	return hit, nil
}

// resolve finds or builds a prioritized rule list's root, keyed by its
// canonical SemanticsFingerprint: the shared base's frozen semantics memo
// (whole-switch roots warmed at base build time), then a fresh compile
// into the checker's manager, which it counts (the Fold* counters keep
// their names from the apply-based fold the compile replaced). Every base
// hit is verified against the entry's canonical list, so a fingerprint
// collision falls through to a private compile rather than reusing the
// wrong root. Resolving through the base makes checking a switch whose
// rule list duplicates a warmed one — or a consistent switch's TCAM side,
// which shares its logical list's semantics key — a list scan. A list
// that misses still meets the base below the root: the compile interns
// through the fork's unique tables, so every subtree it shares with a
// warmed list resolves to its frozen node and only the paths its edits
// changed land in the delta.
func (c *Checker) resolve(rules []rule.Rule) (bdd.Node, error) {
	if e, ok := c.base.semMem[SemanticsFingerprint(rules)]; ok && SemanticsEqual(e.rules, rules) {
		c.foldBaseHits++
		return e.node, nil
	}
	n, err := compileMemoized(c.m, rules, c.base.memo, c.memo)
	if err != nil {
		return bdd.False, err
	}
	c.foldMisses++
	return n, nil
}
