package rule_test

import (
	"testing"

	"scout/internal/oracle"
	. "scout/internal/rule"
)

// TestDedupeKeepsFirst pins the oracle the compiler's deduplication is
// held to: of two rules sharing a Key, the sorted list keeps the first.
func TestDedupeKeepsFirst(t *testing.T) {
	r1 := Rule{Match: Match{VRF: 1}, Action: Allow, Priority: 20}
	r2 := Rule{Match: Match{VRF: 1}, Action: Allow, Priority: 10} // same key
	r3 := Rule{Match: Match{VRF: 2}, Action: Allow, Priority: 10}
	rules := []Rule{r1, r2, r3}
	Sort(rules)
	out := oracle.Dedupe(rules)
	if len(out) != 2 {
		t.Fatalf("Dedupe len = %d, want 2", len(out))
	}
	if out[0].Priority != 20 {
		t.Error("Dedupe must keep the higher-priority duplicate")
	}
}
