package bdd_test

import (
	"testing"

	"scout/internal/oracle"
)

// Each test is a case of the differential runner (differential_test.go):
// a seed and a shape, whose steps its name says it stresses. Every case
// holds the manager to the reference node for node and in Eval and
// SatCount.

// withRepeat adds repeats of earlier applies to the construction steps.
var withRepeat = append(algebra[:len(algebra):len(algebra)], opRepeat, opRepeat)

func runSeeds(t *testing.T, from, n int64, cs bddCase) {
	t.Helper()
	for seed := from; seed < from+n; seed++ {
		run(t, oracle.FromSeed(seed), cs)
	}
}

func TestTerminalsAndVar(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 40, ops: []op{opVar, opNot, opMk}})
}

func TestBasicAlgebra(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 3, steps: 40, ops: []op{opVar, opAnd, opOr, opXor, opNot, opDiff, opLaws}})
}

func TestCommutativityAndDeMorgan(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 60, ops: []op{opVar, opCube, opAnd, opOr, opNot, opLaws}})
}

func TestImplies(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 3, steps: 40, ops: []op{opVar, opAnd, opDiff, opLaws}})
}

func TestOrAll(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 6, steps: 60, ops: []op{opVar, opCube, opOr, opLaws}})
}

func TestCube(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 40, ops: []op{opCube, opAnd, opLaws}})
}

func TestSatCount(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 30, ops: []op{opVar, opAnd, opOr, opXor}})
}

func TestRandomFormulaMatchesTruthTable(t *testing.T) {
	runSeeds(t, 0, 40, bddCase{nVars: 6, steps: 30, ops: algebra})
}

func TestSatCountMatchesTruthTableQuick(t *testing.T) {
	runSeeds(t, 100, 40, bddCase{nVars: 6, steps: 30, ops: algebra})
}

func TestCanonicityQuick(t *testing.T) {
	runSeeds(t, 200, 60, bddCase{nVars: 5, steps: 40, ops: algebra})
}

func TestMkChecksVariableOrder(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 60, ops: []op{opVar, opMk}})
}

func TestSizeGrowsAndIsShared(t *testing.T) {
	runSeeds(t, 0, 4, bddCase{nVars: 8, steps: 100, ops: []op{opVar, opAnd, opRepeat}})
}

func TestCacheStatsConsistency(t *testing.T) {
	run(t, oracle.FromSeed(7), bddCase{nVars: 10, steps: 300, ops: []op{opVar, opCube, opAnd, opOr, opXor, opNot, opRepeat, opRepeat, opRepeat}})
}

func TestDifferentialRandomOps(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 10, steps: 400, ops: algebra})
}

func TestDifferentialDeepFormulas(t *testing.T) {
	run(t, oracle.FromSeed(42), bddCase{nVars: 12, steps: 6, ops: []op{opGrow}})
}

func TestInBase(t *testing.T) {
	runSeeds(t, 0, 8, bddCase{nVars: 4, steps: 60, ops: withRepeat, freeze: 20})
}

func TestFreezeForkIdentity(t *testing.T) {
	runSeeds(t, 0, 4, bddCase{nVars: 6, steps: 100, ops: withRepeat, freeze: 10, readers: 2})
}

func TestForkMatchesStandalone(t *testing.T) {
	runSeeds(t, 1, 8, bddCase{nVars: 6, steps: 100, ops: algebra, freeze: 25})
}

func TestFrozenManagerPanics(t *testing.T) {
	runSeeds(t, 0, 4, bddCase{nVars: 4, steps: 40, ops: algebra, freeze: 10})
}

func TestFreezeForkPanics(t *testing.T) {
	runSeeds(t, 0, 4, bddCase{nVars: 2, steps: 20, ops: []op{opVar, opAnd}, freeze: 3})
}

func TestForkOfWarmSnapshotMatchesUnfrozen(t *testing.T) {
	run(t, oracle.FromSeed(4), bddCase{nVars: 8, steps: 200, ops: withRepeat, freeze: 100})
}

func TestSnapshotConcurrentReaders(t *testing.T) {
	run(t, oracle.FromSeed(0), bddCase{nVars: 8, steps: 300, ops: algebra, freeze: 40, readers: 16})
}
