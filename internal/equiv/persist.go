// Base persistence: the build the analyzer's warmup calls, the
// introspection surface the durable warm-state store serializes a Base
// through, and the reconstruction path that revives one from decoded parts.

package equiv

import (
	"fmt"
	"sort"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// NewBaseWith is NewBase for a caller that has already hashed its lists:
// fps, when not nil, holds each list's SemanticsFingerprint (the analyzer
// ranks the lists by it). The lists compile through one memo of tails and
// tries (compile.go), so what two of them share is built once; the memo is
// frozen with the base.
func NewBaseWith(fps []uint64, semantics ...[]rule.Rule) *Base {
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
		root, err := compileMemoized(m, rules, nil, memo)
		if err != nil {
			continue
		}
		semMem[fp] = semRoot{rules: rules, node: root}
	}
	return &Base{snap: m.Freeze(), semMem: semMem, memo: memo}
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
