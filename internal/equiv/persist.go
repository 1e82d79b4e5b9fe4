// Base persistence: the build a session with a warm store calls, the
// introspection surface the durable warm-state store serializes a Base
// through, and the reconstruction path that revives one from decoded parts.

package equiv

import (
	"fmt"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// NewBaseWith compiles each rule list into its whole-list allowed-set BDD
// and freezes the result: one root per list, in the order given. Every
// list compiles through one memo of tails and tries (compile.go), so what
// two lists share is built once; the memo is dropped with the build, which
// is what lets the base equal its decoded image. A list that cannot be
// encoded gets NoRoot rather than failing the build.
func NewBaseWith(lists ...[]rule.Rule) *Base {
	m := bdd.NewManager(NumVars)
	memo := compileMemo{}
	roots := make([]bdd.Node, len(lists))
	for i, rules := range lists {
		root, err := compileMemoized(m, rules, memo)
		if err != nil {
			root = NoRoot
		}
		roots[i] = root
	}
	return &Base{snap: m.Freeze(), roots: roots, distinct: distinctRoots(roots)}
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
// snapshot or be NoRoot. The caller compares the root count with the list
// count of the deployment the file was keyed by.
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
