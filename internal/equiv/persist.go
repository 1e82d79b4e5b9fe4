// Base persistence: the build the analyzer's warmup calls, the
// introspection surface the durable warm-state store serializes a Base
// through, and the reconstruction path that revives one from decoded parts.

package equiv

import (
	"fmt"
	"slices"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// NewBaseWith compiles each rule list into its whole-list allowed-set BDD
// and freezes the result: one root per list, in the order given, the base
// holding the lists themselves so a checker finds a root by slice
// identity. A list SemanticsEqual to an earlier one shares its root
// without a compile; the others compile through one memo of tails and
// tries (compile.go), so what two of them share is built once, and the
// memo is frozen with the base. A list that cannot be encoded gets
// NoRoot rather than failing the build.
func NewBaseWith(lists ...[]rule.Rule) *Base {
	m := bdd.NewManager(NumVars)
	memo := compileMemo{}
	roots := make([]bdd.Node, len(lists))
	var firsts []int // the first list of each SemanticsEqual class
	for i, rules := range lists {
		if k := slices.IndexFunc(firsts, func(j int) bool { return SemanticsEqual(lists[j], rules) }); k >= 0 {
			roots[i] = roots[firsts[k]]
			continue
		}
		firsts = append(firsts, i)
		root, err := compileMemoized(m, rules, nil, memo)
		if err != nil {
			root = NoRoot
		}
		roots[i] = root
	}
	return &Base{snap: m.Freeze(), lists: lists, roots: roots, distinct: distinctRoots(roots), memo: memo}
}

// distinctRoots counts the distinct roots, NoRoot aside.
func distinctRoots(roots []bdd.Node) int {
	seen := make(map[bdd.Node]bool, len(roots))
	for _, r := range roots {
		if r != NoRoot {
			seen[r] = true
		}
	}
	return len(seen)
}

// Snapshot returns the base's frozen BDD snapshot (safe for concurrent
// reads; the store's codec walks its node array through NodeAt).
func (b *Base) Snapshot() *bdd.Snapshot { return b.snap }

// Roots returns the base's roots, one per list in the order the base was
// built from, NoRoot for a list that does not encode: what the codec
// writes beside the snapshot. The slice is the base's own; read it only.
func (b *Base) Roots() []bdd.Node { return b.roots }

// RebuildBase reassembles a Base from a decoded snapshot and its roots —
// the load half of the store's base codec. Every root must live in the
// snapshot or be NoRoot. The base holds no lists until RebindSemantics
// binds it to the deployment its file was keyed by; until then a fork
// compiles every list.
func RebuildBase(snap *bdd.Snapshot, roots []bdd.Node) (*Base, error) {
	if snap.NumVars() != NumVars {
		return nil, fmt.Errorf("equiv: rebuild base: snapshot has %d vars, want %d", snap.NumVars(), NumVars)
	}
	for _, r := range roots {
		if r != NoRoot && !snap.Contains(r) {
			return nil, fmt.Errorf("equiv: rebuild base: root %d outside snapshot", r)
		}
	}
	return &Base{snap: snap, roots: roots, distinct: distinctRoots(roots)}, nil
}
