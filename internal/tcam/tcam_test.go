package tcam

import (
	"testing"

	"scout/internal/oracle"
)

// Each test is a case of the table runner (table_test.go): a seed range
// and a shape, whose steps its name says it stresses. Every case holds the
// table to the reference slice, its priority order and slack to
// checkOrderAndSlack and its snapshots to their contract after every step.

// runTables runs a case per seed below seeds: a table of capacity entries
// taking steps steps, each drawn from ops.
func runTables(t *testing.T, seeds int64, capacity, steps int, ops ...op) tableStats {
	t.Helper()
	var stats tableStats
	for seed := int64(0); seed < seeds; seed++ {
		runTable(t, oracle.FromSeed(seed), tableCase{capacity: capacity, steps: steps, ops: ops}, &stats)
	}
	return stats
}

// exercised fails the test unless the runs did what the case is for.
func exercised(t *testing.T, what string, n int) {
	t.Helper()
	if n == 0 {
		t.Errorf("no run %s; the case proves nothing", what)
	}
}

func TestInstallAndLen(t *testing.T) {
	runTables(t, 8, 32, 40, opInstall, opRules)
}

func TestDefaultCapacity(t *testing.T) {
	runTables(t, 2, 0, 20, opInstallAll)
	runTables(t, 2, -5, 20, opInstallAll)
}

func TestOverflow(t *testing.T) {
	s := runTables(t, 8, 3, 30, opInstall, opInstallAll, opRemove)
	exercised(t, "overflowed", s.overflowed)
}

func TestRemove(t *testing.T) { runTables(t, 8, 16, 60, opInstall, opRemove, opRemove) }

func TestClearAndKeys(t *testing.T) { runTables(t, 8, 24, 60, opInstallAll, opRemoveKeys, opRules) }

// TestInsertionOrderWithinPriority: a fresh install goes behind every
// entry of its priority, through removals that open gaps in a band.
func TestInsertionOrderWithinPriority(t *testing.T) {
	runTables(t, 8, 32, 60, opInstallAll, opRemove, opRules)
}

// TestAliasedKeysUnderChurn: keys that corruption aliases onto one
// another under the full mutation surface, down to a removal whose key's
// next occurrence sits right behind the removed one.
func TestAliasedKeysUnderChurn(t *testing.T) {
	s := runTables(t, 200, 32, 300, allOps...)
	exercised(t, "removed an entry with an aliased duplicate right behind it", s.adjacent)
}

func TestRemoveKeysMatchesSequentialRemove(t *testing.T) {
	s := runTables(t, 20, 64, 200, opInstallAll, opInstallAll, opCorrupt, opRemoveKeys)
	exercised(t, "removed keys from an aliased table", s.aliased)
	exercised(t, "named an aliased key twice in one RemoveKeys", s.repeated)
}

func TestInstallAllMatchesSequentialInstall(t *testing.T) {
	s := runTables(t, 20, 16, 100, opInstallAll, opInstallAll, opRemove, opEvict)
	exercised(t, "overflowed", s.overflowed)
}

func TestEvictRandom(t *testing.T) {
	runTables(t, 8, 32, 60, opInstallAll, opEvict)
}

func TestCorruptChangesKeysButNotLen(t *testing.T) {
	runTables(t, 8, 32, 60, opInstallAll, opCorrupt, opRules)
}

func TestCorruptSkipsDefaultDeny(t *testing.T) {
	s := runTables(t, 8, 8, 60, opInstall, opCorrupt)
	exercised(t, "drew the default deny to corrupt", s.denied)
}

func TestCorruptPortKeepsRangeValid(t *testing.T) {
	runTables(t, 8, 16, 60, opInstallAll, opCorrupt)
}

func TestRulesSnapshotSurvivesWrites(t *testing.T) {
	runTables(t, 8, 32, 60, opInstallAll, opCorrupt, opEvict, opRules)
}

// TestRulesNeverAllocates: a read hands out the table itself, so the first
// Rules call after any step, a write's included, allocates nothing.
func TestRulesNeverAllocates(t *testing.T) {
	runTable(t, oracle.FromSeed(0), tableCase{capacity: 32, steps: 600, ops: allOps, freeReads: true}, &tableStats{})
}

func TestRulesSnapshotSharedUntilWrite(t *testing.T) {
	runTables(t, 8, 32, 100, allOps...)
}

// TestConcurrentAccess races snapshot readers, which read every entry of
// what they take, against the writes (run under -race in CI): every
// snapshot a reader takes is the table as some write left it.
func TestConcurrentAccess(t *testing.T) {
	runTable(t, oracle.FromSeed(0), tableCase{capacity: 64, steps: 600, ops: allOps, readers: 4}, &tableStats{})
}
