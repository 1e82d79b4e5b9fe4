// Package equiv implements the paper's L-T equivalence checker (§III-C):
// it compares the logical rules compiled from the network policy (L-type)
// against the TCAM rules collected from a switch (T-type). When the two
// differ, the check reports the set of missing rules — logical rules whose
// behaviour should have been deployed in the TCAM but is absent — which
// become the observations that annotate the risk models, and the extra
// rules, deployed rules that allow what the policy does not.
//
// Check (check.go) is the check stage's one entry point. It decides any
// pair of lists by first match, class by class, whatever their IDs, and
// builds no BDD. Checker.Check compiles both lists into reduced ordered
// BDDs of 16-bit fields and diffs them on a fork of a frozen Base
// (base.go); it is the tests' reference for Check, and stays until bench/
// stops timing it (ROADMAP item 1, shims). A Base is a BDD snapshot with
// one root per logical list of a deployment: a warm store writes it and
// reads it back, and no check reads it (ROADMAP item 28).
package equiv

import (
	"fmt"
	"slices"

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
// checker is a fork of a shared Base (Base.NewChecker): it compiles every
// list it is handed in a private copy-on-write delta, interning through
// the frozen snapshot, so any number of concurrent forks share one node
// pool for what their lists have in common with the base's. A checker
// remembers no whole list. Not safe for concurrent use.
type Checker struct {
	m Backend
	// newM recreates the manager on Reset with the same kind and sizing
	// the fork was constructed with.
	newM func() Backend
	// memo is the compiler's memo of tails and tries (compile.go). Its
	// nodes may sit in the delta, so it lives exactly as long as the
	// delta's node IDs do: Reset drops it.
	memo compileMemo

	// foldMisses counts the lists compiled in this checker, cumulative
	// across checks and Resets.
	foldMisses int

	// cacheAcc accumulates the op-cache counters of managers discarded
	// by Reset, so Stats stays cumulative like the fold counters.
	cacheAcc bdd.CacheStats
}

// DeltaSize returns the number of nodes this checker itself owns: the
// copy-on-write delta beyond the shared base. The manager never frees
// nodes; a Reset sheds the delta, never the base. No check keeps a checker
// past its own switch, so nothing outside bench/ watches the delta; it
// stays until bench/ stops reading it (ROADMAP item 1, shims).
func (c *Checker) DeltaSize() int { return c.m.DeltaSize() }

// Stats returns the checker's cumulative counters. It stays until bench/
// stops reading them (ROADMAP item 1, shims).
func (c *Checker) Stats() CheckerStats {
	cache := c.cacheAcc
	cache.Add(c.m.CacheStats())
	return CheckerStats{FoldMisses: c.foldMisses, Cache: cache}
}

// CheckerStats counts the lists one checker compiled, and what its
// manager's op cache did.
type CheckerStats struct {
	// Deprecated: BaseHits, LocalHits and Misses counted match encodings,
	// FoldLocalHits a checker-local semantics memo and FoldBaseHits roots
	// taken from the base, none of which exist any more; they stay 0 until
	// bench/ stops reading them (ROADMAP item 1, shims).
	BaseHits, LocalHits, Misses, FoldLocalHits, FoldBaseHits int

	// FoldMisses are the lists compiled in this checker: two for every
	// check whose lists both encode.
	FoldMisses int

	// Cache is the manager's operation-cache hits and misses, cumulative
	// across Resets.
	Cache bdd.CacheStats
}

// Reset discards the checker's delta and its compile memo, re-forking the
// shared base. Checks after a Reset produce identical reports — only the
// amortized compile work is lost. Counters survive. It stays until bench/
// stops calling it (ROADMAP item 1, shims).
func (c *Checker) Reset() {
	c.cacheAcc.Add(c.m.CacheStats())
	c.m = c.newM()
	c.memo = compileMemo{}
}

// Deprecated: Compact does nothing and returns false — no checker
// outlives its check, so none is compacted. It stays until bench/ stops
// timing it (ROADMAP item 1, shims).
func (c *Checker) Compact() (bdd.CompactStats, bool) { return bdd.CompactStats{}, false }

// Report is the outcome of one L-T equivalence check. Its rules are the
// checked lists' own, by value, each sharing its provenance slice with the
// list it came from (see rule.Rule): read-only, like the lists.
type Report struct {
	// Equivalent is true when the logical and deployed rules enforce
	// exactly the same behaviour.
	Equivalent bool

	// MissingRules lists the logical rules (with provenance) whose allowed
	// behaviour is at least partially absent from the TCAM. These are the
	// paper's "missing rules" used to augment risk models. They keep the
	// logical list's order.
	MissingRules []rule.Rule

	// ExtraRules lists deployed rules that allow behaviour the policy does
	// not permit (e.g. corrupted entries matching the wrong traffic), in
	// rule.Compare order, so a TCAM's install order does not move them.
	ExtraRules []rule.Rule
}

// Check compares logical rules against deployed rules. Both slices are
// interpreted in match order (priority descending); callers should pass
// them as produced by the compiler and the TCAM snapshot respectively.
// When they differ, every allow rule of each list is walked against the
// packets its side allows and the other does not (attribute), however
// large that difference is. It is the tests' reference for the package's
// Check, which decides the same without a BDD, and stays until bench/
// stops timing it (ROADMAP item 1, shims).
func (c *Checker) Check(logical, deployed []rule.Rule) (*Report, error) {
	lAllowed, tAllowed, err := c.resolve(logical, deployed)
	if err != nil {
		return nil, err
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
	slices.SortFunc(rep.ExtraRules, rule.Compare)
	return rep, nil
}

// attribute returns the allow rules whose match meets the header space
// diff, in list order. Every allow rule is tested by walking diff under
// the rule's constraints (meets.go), which only reads the diagram:
// attributing a difference to rules adds no node to the checker's manager
// and keeps no per-match state.
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

// resolve compiles the roots of a check's two lists into the checker's
// manager. The compile interns through the fork's unique tables, so every
// subtree a list shares with a frozen list resolves to its frozen node and
// only the paths its edits changed land in the delta.
func (c *Checker) resolve(logical, deployed []rule.Rule) (l, t bdd.Node, err error) {
	if l, err = c.compile(logical); err != nil {
		return l, t, fmt.Errorf("encode logical rules: %w", err)
	}
	if t, err = c.compile(deployed); err != nil {
		return l, t, fmt.Errorf("encode deployed rules: %w", err)
	}
	return l, t, nil
}

// compile builds a list's root in the checker's manager and counts it.
func (c *Checker) compile(rules []rule.Rule) (bdd.Node, error) {
	n, err := compileMemoized(c.m, rules, c.memo)
	if err != nil {
		return bdd.False, err
	}
	c.foldMisses++
	return n, nil
}
