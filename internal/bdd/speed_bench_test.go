package bdd_test

import (
	"math/rand"
	"testing"

	. "scout/internal/bdd"
	"scout/internal/oracle"
)

// engine is the operation surface the speed benchmarks drive on both the
// open-addressed Manager and the map-backed oracle.RefManager, so the two share
// one workload definition and the legs stay comparable.
type engine interface {
	Cube(map[int]bool) Node
	And(a, b Node) Node
	Or(a, b Node) Node
	Xor(a, b Node) Node
	Size() int
}

// internWorkload builds the checker-shaped literal cubes once; each
// benchmark iteration replays them against a manager. Every cube fixes
// the same 16 spread positions with random polarities (the match-field
// shape BenchmarkApplyChain uses), which keeps the accumulated unions
// polynomial while still churning the unique table and op cache.
func internWorkload(nVars, nCubes int) []map[int]bool {
	rng := rand.New(rand.NewSource(17))
	lits := make([]map[int]bool, nCubes)
	for i := range lits {
		l := make(map[int]bool, 16)
		for v := 0; v < 16 && v*4 < nVars; v++ {
			l[v*4] = rng.Intn(2) == 0
		}
		lits[i] = l
	}
	return lits
}

func runIntern(m engine, lits []map[int]bool) Node {
	acc := False
	for _, l := range lits {
		acc = m.Or(acc, m.Cube(l))
	}
	return acc
}

// BenchmarkMkIntern measures raw node interning: a fresh manager per
// iteration builds and unions a few thousand literal cubes, so nearly
// every mk is a unique-table miss followed by an insert. The open/ref
// pair is the unique-table replacement's headline comparison.
func BenchmarkMkIntern(b *testing.B) {
	const nVars = 64
	lits := internWorkload(nVars, 2048)
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if runIntern(NewManager(nVars), lits) == False {
				b.Fatal("union must be non-empty")
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if runIntern(oracle.NewRefManager(nVars), lits) == False {
				b.Fatal("union must be non-empty")
			}
		}
	})
}

// applyWorkload replays an apply-heavy mix: pairwise And/Or/Xor over a
// ladder of accumulated unions — the fold loop's shape, dominated by
// op-cache lookups and mk on wide intermediate functions rather than by
// cube construction.
func applyWorkload(m engine, lits []map[int]bool) Node {
	roots := make([]Node, 0, len(lits))
	for _, l := range lits {
		roots = append(roots, m.Cube(l))
	}
	// Prefix unions give progressively wider operands.
	sums := make([]Node, len(roots))
	acc := False
	for i, r := range roots {
		acc = m.Or(acc, r)
		sums[i] = acc
	}
	out := False
	for i := 0; i < len(sums); i++ {
		j := (i*7 + 3) % len(sums)
		out = m.Or(out, m.And(m.Xor(sums[i], sums[j]), sums[(i+j)/2]))
	}
	return out
}

// BenchmarkApplyColdWarm is the cold-encode microbench the tentpole is
// gated on: the cold legs rebuild a fresh manager per iteration (every
// op-cache lookup misses, every node interns — the one-shot analyzer's
// cost shape), the warm legs replay the identical stream on a warm
// manager (all hits — the session re-check shape). The open/cold vs
// ref/cold ratio is the claimed speedup.
func BenchmarkApplyColdWarm(b *testing.B) {
	const nVars = 64
	lits := internWorkload(nVars, 512)
	b.Run("open/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			applyWorkload(NewManager(nVars), lits)
		}
	})
	b.Run("ref/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			applyWorkload(oracle.NewRefManager(nVars), lits)
		}
	})
	b.Run("open/warm", func(b *testing.B) {
		m := NewManager(nVars)
		applyWorkload(m, lits)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			applyWorkload(m, lits)
		}
	})
	b.Run("ref/warm", func(b *testing.B) {
		m := oracle.NewRefManager(nVars)
		applyWorkload(m, lits)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			applyWorkload(m, lits)
		}
	})
}

// BenchmarkCompactDelta measures the delta GC itself: a fork accumulates
// a mixed live/dead delta (rebuilt outside the timer each iteration),
// then CompactDelta marks, rebuilds, and remaps it.
func BenchmarkCompactDelta(b *testing.B) {
	const nVars = 24
	base := NewManager(nVars)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		randomFormula(base, nVars, rng, 6)
	}
	snap := base.Freeze()
	lits := internWorkload(nVars, 384)

	var retained, dropped int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fork := NewManagerFrom(snap)
		var keep []Node
		for j := 0; j < len(lits); j += 4 {
			keep = append(keep, applyWorkload(fork, lits[j:j+4]))
		}
		keep = keep[:len(keep)/2] // half the roots die
		b.StartTimer()
		_, stats := fork.CompactDelta(keep)
		retained, dropped = stats.Retained, stats.Dropped
	}
	b.ReportMetric(float64(retained), "retained-nodes")
	b.ReportMetric(float64(dropped), "dropped-nodes")
}
