package bdd_test

import (
	"math/rand"
	"sync"
	"testing"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

// buildForkWorkload builds a frozen base plus a fork carrying both
// base-resident and delta roots, returning the fork, the roots the
// caller wants to keep live, and some deliberately dropped roots.
func buildForkWorkload(t *testing.T, nVars int, seed int64) (snap *Snapshot, fork *Manager, keep, drop []Node) {
	t.Helper()
	base := NewManager(nVars)
	rng := rand.New(rand.NewSource(seed))
	var baseRoots []Node
	for i := 0; i < 6; i++ {
		n, _ := randomFormula(base, nVars, rng, 4)
		baseRoots = append(baseRoots, n)
	}
	snap = base.Freeze()
	fork = NewManagerFrom(snap)
	keep = append(keep, baseRoots[:3]...)
	for i := 0; i < 8; i++ {
		n, _ := randomFormula(fork, nVars, rng, 5)
		if i%2 == 0 {
			keep = append(keep, n)
		} else {
			drop = append(drop, n)
		}
	}
	return snap, fork, keep, drop
}

// evalSignature samples a root's truth value on deterministic
// assignments — enough to distinguish the workload's functions.
func evalSignature(m *Manager, n Node, nVars int) []bool {
	rng := rand.New(rand.NewSource(99))
	sig := make([]bool, 64)
	assign := make([]bool, nVars)
	for i := range sig {
		for j := range assign {
			assign[j] = rng.Intn(2) == 0
		}
		sig[i] = oracle.Eval(m, n, assign)
	}
	return sig
}

func sigEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompactDeltaForkOracle(t *testing.T) {
	const nVars = 12
	snap, fork, keep, drop := buildForkWorkload(t, nVars, 1)

	sigs := make([][]bool, len(keep))
	counts := make([]float64, len(keep))
	for i, n := range keep {
		sigs[i] = evalSignature(fork, n, nVars)
		counts[i] = oracle.SatCount(fork, nVars, n)
	}
	before := fork.DeltaSize()

	remap, stats := fork.CompactDelta(keep)
	if stats.Retained+stats.Dropped != before {
		t.Fatalf("retained %d + dropped %d != pre-compact delta %d",
			stats.Retained, stats.Dropped, before)
	}
	if fork.DeltaSize() != stats.Retained {
		t.Fatalf("post-compact DeltaSize %d != retained %d", fork.DeltaSize(), stats.Retained)
	}
	if stats.Dropped == 0 {
		t.Fatalf("workload built dead roots but nothing was dropped")
	}

	// Base nodes (and terminals) are pinned: identity under the remap.
	for id := Node(0); int(id) < snap.Size(); id++ {
		if remap.Node(id) != id {
			t.Fatalf("base node %d remapped to %d", id, remap.Node(id))
		}
	}

	for i, n := range keep {
		rn := remap.Node(n)
		if rn == NoNode {
			t.Fatalf("live root %d mapped to NoNode", n)
		}
		if snap.Contains(n) != snap.Contains(rn) {
			t.Fatalf("root %d changed base residency under remap", n)
		}
		if !sigEqual(evalSignature(fork, rn, nVars), sigs[i]) {
			t.Fatalf("root %d evaluates differently after compaction", n)
		}
		if got := oracle.SatCount(fork, nVars, rn); got != counts[i] {
			t.Fatalf("root %d SatCount %v after compaction, want %v", n, got, counts[i])
		}
	}
	for _, n := range drop {
		if snap.Contains(n) {
			continue // base-expressible roots survive by definition
		}
		if remap.Node(n) != NoNode {
			t.Fatalf("dead delta root %d survived as %d", n, remap.Node(n))
		}
	}

	// Idempotence: compacting again with the remapped roots keeps
	// everything and maps every live node to itself.
	live := make([]Node, 0, len(keep))
	for _, n := range keep {
		live = append(live, remap.Node(n))
	}
	sizeBefore := fork.DeltaSize()
	remap2, stats2 := fork.CompactDelta(live)
	if stats2.Dropped != 0 || stats2.Retained != sizeBefore {
		t.Fatalf("second compaction not a no-op: %+v (delta %d)", stats2, sizeBefore)
	}
	for _, n := range live {
		if remap2.Node(n) != n {
			t.Fatalf("idempotent compaction moved %d to %d", n, remap2.Node(n))
		}
	}
}

// TestCompactDeltaInterning pins the rebuilt unique table: re-deriving a
// kept function after compaction must resolve to its remapped ID, not
// intern a duplicate.
func TestCompactDeltaInterning(t *testing.T) {
	base := NewManager(8)
	for v := 0; v < 7; v++ {
		base.And(base.Mk(v, False, True), base.Mk(v+1, False, True))
	}
	snap := base.Freeze()
	fork := NewManagerFrom(snap)

	// Keep the Xor intermediate live too, so the re-derivation below can
	// resolve every step from the rebuilt unique table.
	x := fork.Xor(fork.Mk(0, False, True), fork.Mk(3, False, True))
	keepRoot := fork.And(x, fork.Mk(5, False, True))
	fork.Or(fork.Or(fork.Mk(1, False, True), fork.Mk(2, False, True)), fork.Mk(6, False, True)) // dead

	remap, _ := fork.CompactDelta([]Node{x, keepRoot})
	want := remap.Node(keepRoot)
	size := fork.DeltaSize()
	if got := fork.And(fork.Xor(fork.Mk(0, False, True), fork.Mk(3, False, True)), fork.Mk(5, False, True)); got != want {
		t.Fatalf("re-derived kept function interned as %d, want remapped %d", got, want)
	}
	if fork.DeltaSize() != size {
		t.Fatalf("re-deriving a kept function grew the delta %d -> %d", size, fork.DeltaSize())
	}
}

// TestCompactDeltaDropsOpCache pins what a compaction does to the op
// cache: it starts again empty, and nothing but speed depends on that.
// Re-running the op stream that built the delta misses exactly as often
// as it does on a cold manager, and returns, root for root, the nodes a
// fresh fork of the same snapshot builds (under the remap: the stream's
// dead intermediates were shed and the survivors slid down) — canonicity
// rests on the rebuilt unique table, not on memoized results.
func TestCompactDeltaDropsOpCache(t *testing.T) {
	base := NewManager(10)
	for v := 0; v < 9; v++ {
		base.Or(base.Mk(v, False, True), base.Mk(v+1, False, True))
	}
	snap := base.Freeze()
	stream := func(m *Manager) []Node {
		a := m.And(m.Mk(0, False, True), m.Xor(m.Mk(4, False, True), m.Mk(7, False, True)))
		b := m.Or(m.Not(m.Mk(2, False, True)), m.Mk(8, False, True))
		m.Xor(a, m.Not(m.Mk(5, False, True))) // dead: no root below keeps it
		return []Node{a, b, m.And(a, b)}
	}

	cold := NewManagerFrom(snap)
	fresh := stream(cold)
	coldMisses := cold.CacheStats().Misses

	fork := NewManagerFrom(snap)
	roots := stream(fork)
	stream(fork)
	if got := fork.CacheStats().Misses; got != coldMisses {
		t.Fatalf("warm repeat of the stream missed: %d misses, cold stream %d", got, coldMisses)
	}

	remap, stats := fork.CompactDelta(roots)
	if stats.Dropped == 0 {
		t.Fatalf("the stream's dead intermediates were not shed: %+v", stats)
	}
	again := stream(fork)
	if got := fork.CacheStats().Misses - coldMisses; got != coldMisses {
		t.Fatalf("stream after compaction missed %d times, cold stream %d: op entries survived", got, coldMisses)
	}
	for i := range again {
		if again[i] != remap.Node(fresh[i]) {
			t.Fatalf("root %d after compaction = node %d, fresh fork's node %d remaps to %d",
				i, again[i], fresh[i], remap.Node(fresh[i]))
		}
	}
}

func TestCompactDeltaStandalone(t *testing.T) {
	const nVars = 10
	m := NewManager(nVars)
	rng := rand.New(rand.NewSource(5))
	var keep []Node
	for i := 0; i < 6; i++ {
		n, _ := randomFormula(m, nVars, rng, 5)
		if i%2 == 0 {
			keep = append(keep, n)
		}
	}
	sigs := make([][]bool, len(keep))
	for i, n := range keep {
		sigs[i] = evalSignature(m, n, nVars)
	}
	remap, stats := m.CompactDelta(keep)
	// Terminals are pinned even without a frozen base.
	if remap.Node(False) != False || remap.Node(True) != True {
		t.Fatalf("terminals moved: %d, %d", remap.Node(False), remap.Node(True))
	}
	if m.DeltaSize() != stats.Retained+2 {
		t.Fatalf("standalone DeltaSize %d != retained %d + terminals", m.DeltaSize(), stats.Retained)
	}
	for i, n := range keep {
		if !sigEqual(evalSignature(m, remap.Node(n), nVars), sigs[i]) {
			t.Fatalf("root %d evaluates differently after standalone compaction", n)
		}
	}
	// The compacted manager keeps working: new construction interns fine.
	n2, tt := randomFormula(m, nVars, rng, 5)
	assign := make([]bool, nVars)
	for a := 0; a < 1<<nVars; a += 37 {
		for j := range assign {
			assign[j] = a&(1<<j) != 0
		}
		if oracle.Eval(m, n2, assign) != tt[a] {
			t.Fatalf("post-compaction construction wrong at assignment %d", a)
		}
	}
}

// TestCompactDeltaConcurrentSnapshotReaders races per-goroutine fork
// compactions against lock-free readers of the shared frozen base, each
// reading through a fork of its own: compaction touches only fork-private
// state, so the readers must never observe it (meaningful under -race).
func TestCompactDeltaConcurrentSnapshotReaders(t *testing.T) {
	const nVars = 10
	base := NewManager(nVars)
	var frozen []Node
	for v := 0; v < nVars-1; v++ {
		frozen = append(frozen, base.And(base.Mk(v, False, True), base.Mk(v+1, False, True)))
	}
	snap := base.Freeze()

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			fork := NewManagerFrom(snap)
			var keep []Node
			for i := 0; i < 40; i++ {
				n, _ := randomFormula(fork, nVars, rng, 4)
				keep = append(keep, n)
				if i%10 == 9 {
					roots := keep[len(keep)-3:]
					remap, _ := fork.CompactDelta(roots)
					keep = keep[:0]
					for _, r := range roots {
						keep = append(keep, remap.Node(r))
					}
				}
			}
			// Base-expressible rebuilds must still resolve to frozen IDs.
			v := rng.Intn(nVars - 1)
			if fork.And(fork.Mk(v, False, True), fork.Mk(v+1, False, True)) != frozen[v] {
				errs <- "fork disagreed with frozen ID after compactions"
			}
		}(g)
	}
	// Concurrent snapshot readers.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			reader := NewManagerFrom(snap)
			assign := make([]bool, nVars)
			for i := 0; i < 2000; i++ {
				for j := range assign {
					assign[j] = rng.Intn(2) == 0
				}
				v := rng.Intn(nVars - 1)
				want := assign[v] && assign[v+1]
				if oracle.Eval(reader, frozen[v], assign) != want {
					errs <- "snapshot reader observed a wrong value"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
