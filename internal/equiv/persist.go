// Base persistence and cross-deployment sharing: the introspection
// surface the durable warm-state store serializes a Base through, the
// reconstruction path that revives one from decoded parts, and the
// SemanticsSource hook that lets a base under construction graft frozen
// whole-switch semantics roots out of other deployments' bases instead
// of folding them privately — PR 5's fingerprint-keyed semantics dedup
// generalized across deployments, with the same canonical-list
// verification so a 64-bit collision degrades to a private fold, never
// a wrong root.

package equiv

import (
	"fmt"
	"sort"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// SemanticsSource resolves frozen whole-switch semantics roots built
// elsewhere in the process — the cross-deployment registry implements
// it. ResolveSemantics returns the donor snapshot and the root node of
// the allowed-set BDD for a rule list canonically equal to rules (the
// implementation MUST verify with SemanticsEqual before answering, so
// fingerprint collisions are filtered at the source), or ok == false to
// make the caller fold privately. Implementations must be safe for
// concurrent use: bases for different deployments build concurrently.
type SemanticsSource interface {
	ResolveSemantics(fp uint64, rules []rule.Rule) (snap *bdd.Snapshot, root bdd.Node, ok bool)
}

// BaseBuildStats counts where a base's whole-switch semantics roots
// came from: grafted out of another deployment's frozen base through a
// SemanticsSource, or folded here. Grafts + Folds = distinct semantics
// entries built.
type BaseBuildStats struct {
	SemGrafts int
	SemFolds  int
}

// NewBaseWith is NewBase with a cross-deployment semantics source: each
// distinct rule list is first looked up in src (verified canonical-list
// hit → the donor's frozen BDD is imported node-for-node through the
// manager's unique table, a pure structural copy), and only source
// misses compile locally. A nil src compiles every list locally. The
// lists compile through one memo of tails and tries (compile.go), so what
// two of them share is built once; the memo is frozen with the base.
//
// fps, when not nil, holds each list's SemanticsFingerprint, for a caller
// that has already hashed them (the analyzer ranks the lists by it).
func NewBaseWith(src SemanticsSource, fps []uint64, semantics ...[]rule.Rule) (*Base, BaseBuildStats) {
	var stats BaseBuildStats
	m := bdd.NewManager(NumVars)
	semMem := make(map[uint64]semRoot, len(semantics))
	memo := compileMemo{}
	for i, rules := range semantics {
		var fp uint64
		if fps != nil {
			fp = fps[i]
		} else {
			fp = SemanticsFingerprint(rules)
		}
		if _, ok := semMem[fp]; ok {
			// Duplicate list, or — vanishingly rarely — a colliding one;
			// either way the first owner keeps the slot and a colliding
			// list simply folds in the forks (hits verify the list).
			continue
		}
		if src != nil {
			if donor, droot, ok := src.ResolveSemantics(fp, rules); ok {
				semMem[fp] = semRoot{rules: rules, node: m.Import(donor, droot)}
				stats.SemGrafts++
				continue
			}
		}
		root, err := compileMemoized(m, rules, nil, memo)
		if err != nil {
			continue
		}
		semMem[fp] = semRoot{rules: rules, node: root}
		stats.SemFolds++
	}
	return &Base{snap: m.Freeze(), semMem: semMem, memo: memo}, stats
}

// Snapshot returns the base's frozen BDD snapshot (safe for concurrent
// reads; the store's codec walks its node array through NodeAt).
func (b *Base) Snapshot() *bdd.Snapshot { return b.snap }

// ForEachSemantics visits every frozen whole-switch semantics entry —
// its fingerprint key, canonical rule list, and root — in ascending
// fingerprint order: the deterministic iteration the codec needs to
// produce byte-reproducible files from one base.
func (b *Base) ForEachSemantics(fn func(fp uint64, rules []rule.Rule, root bdd.Node)) {
	fps := make([]uint64, 0, len(b.semMem))
	for fp := range b.semMem {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		e := b.semMem[fp]
		fn(fp, e.rules, e.node)
	}
}

// SemEntry is one decoded semantics-memo binding for RebuildBase: the
// canonical rule list and its frozen root. The fingerprint key is not
// part of the entry — RebuildBase recomputes it from the list, so a
// corrupted or stale key in a file can never misfile an entry.
type SemEntry struct {
	Rules []rule.Rule
	Node  bdd.Node
}

// RebuildBase reassembles a Base from a rebuilt snapshot and decoded
// memo entries — the load half of the store's base codec. Every node
// must live in the snapshot and entries must arrive as ForEachSemantics
// emits them, in strictly ascending fingerprint order (anything else —
// two lists sharing a fingerprint included — cannot come from a
// well-formed encode and is rejected as corruption).
func RebuildBase(snap *bdd.Snapshot, semantics []SemEntry) (*Base, error) {
	if snap.NumVars() != NumVars {
		return nil, fmt.Errorf("equiv: rebuild base: snapshot has %d vars, want %d", snap.NumVars(), NumVars)
	}
	semMem := make(map[uint64]semRoot, len(semantics))
	var prev uint64
	for i, e := range semantics {
		if !snap.Contains(e.Node) {
			return nil, fmt.Errorf("equiv: rebuild base: semantics node %d outside snapshot", e.Node)
		}
		fp := SemanticsFingerprint(e.Rules)
		if i > 0 && fp <= prev {
			return nil, fmt.Errorf("equiv: rebuild base: semantics fingerprint %#x out of order or duplicated", fp)
		}
		prev = fp
		semMem[fp] = semRoot{rules: e.Rules, node: e.Node}
	}
	return &Base{snap: snap, semMem: semMem}, nil
}
