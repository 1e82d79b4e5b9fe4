package bdd_test

import (
	"math/rand"
	"testing"

	. "scout/internal/bdd"
)

// BenchmarkApplyChain measures a long And/Or chain over disjoint cubes —
// the checker's dominant workload shape.
func BenchmarkApplyChain(b *testing.B) {
	const nVars = 72
	m := NewManager(nVars)
	rng := rand.New(rand.NewSource(1))
	cubes := make([]Node, 256)
	for i := range cubes {
		lits := make(map[int]bool, 16)
		for v := 0; v < 16; v++ {
			lits[v*4] = rng.Intn(2) == 0
		}
		cubes[i] = m.Cube(lits)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := False
		for _, c := range cubes {
			acc = m.Or(acc, c)
		}
		if acc == False {
			b.Fatal("union must be non-empty")
		}
	}
}

// BenchmarkCube measures literal-cube construction.
func BenchmarkCube(b *testing.B) {
	m := NewManager(72)
	lits := make(map[int]bool, 48)
	for v := 0; v < 48; v++ {
		lits[v] = v%3 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Cube(lits)
	}
}
