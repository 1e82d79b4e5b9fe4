package equiv

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// randomRuleList builds a prioritized rule list with mixed exact matches,
// wildcards, and port ranges, ending in a default deny.
func randomRuleList(rng *rand.Rand, n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		r := rule.Rule{
			Match: rule.Match{
				VRF:    object.ID(rng.Intn(4) + 1),
				SrcEPG: object.ID(rng.Intn(6) + 1),
				DstEPG: object.ID(rng.Intn(6) + 1),
				Proto:  rule.ProtoTCP,
				PortLo: uint16(rng.Intn(1000)),
			},
			Action:   rule.Allow,
			Priority: 10,
		}
		r.Match.PortHi = r.Match.PortLo + uint16(rng.Intn(200))
		switch rng.Intn(5) {
		case 0:
			r.Match.WildcardSrc = true
		case 1:
			r.Match.WildcardDst = true
		case 2:
			r.Match.Proto = rule.ProtoAny
		case 3:
			r.Action = rule.Deny
		}
		rules = append(rules, r)
	}
	return append(rules, rule.DefaultDeny())
}

// TestCheckerBackendDifferential runs the same check workload through a
// checker on the open-addressed manager and a checker on the map-backed
// reference, asserting report equality and equal node construction.
func TestCheckerBackendDifferential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast, replay := NewChecker(), NewChecker()
		ref := NewCheckerBacked(func() Backend { return bdd.NewRefManager(NumVars) })

		for i := 0; i < 12; i++ {
			logical := randomRuleList(rng, 8)
			deployed := randomRuleList(rng, 8)
			if rng.Intn(3) == 0 {
				deployed = logical // equivalent case
			}
			got, err := fast.Check(logical, deployed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replay.Check(logical, deployed); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Check(logical, deployed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d check %d: reports diverged\nfast: %+v\nref:  %+v", seed, i, got, want)
			}
		}
		// Node construction totals must agree too: the engines build the
		// same nodes, not just the same answers.
		if fast.Size() != ref.Size() {
			t.Fatalf("seed %d: node counts diverged: fast %d, ref %d", seed, fast.Size(), ref.Size())
		}
		// Cache behaviour is a pure function of the operation stream: the
		// same checks on a second fresh checker reproduce every tier
		// counter exactly.
		if got, want := replay.Stats().Cache, fast.Stats().Cache; got != want {
			t.Fatalf("seed %d: cache counters not deterministic across identical sweeps: %+v vs %+v", seed, got, want)
		}
	}
}

// TestCheckerCompactPreservesReports pins the checker-level compaction
// contract: after Compact, re-checking already-seen switches yields
// identical reports, the logical side still hits the (remapped) memo, and
// the collected side — never remembered, so shed by the compaction —
// compiles again without the memo growing.
func TestCheckerCompactPreservesReports(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := newBase()
	for _, c := range []*Checker{NewChecker(), base.NewChecker()} {
		var lists [][2][]rule.Rule
		var reports []*Report
		for i := 0; i < 8; i++ {
			logical := randomRuleList(rng, 10)
			deployed := randomRuleList(rng, 10)
			rep, err := c.Check(logical, deployed)
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, [2][]rule.Rule{logical, deployed})
			reports = append(reports, rep)
		}

		preStats, remembered, delta := c.Stats(), len(c.semMem), c.DeltaSize()
		if remembered != len(lists) {
			t.Fatalf("checker remembers %d lists after %d checks, want the logical ones only", remembered, len(lists))
		}
		st, ok := c.Compact()
		if !ok {
			t.Fatal("Compact refused on a Manager-backed checker")
		}
		if got := delta - c.DeltaSize(); got != st.Dropped {
			t.Fatalf("Compact shed %d delta nodes but reported %d dropped", got, st.Dropped)
		}

		for i, pair := range lists {
			rep, err := c.Check(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, reports[i]) {
				t.Fatalf("report %d changed after Compact:\nbefore: %+v\nafter:  %+v", i, reports[i], rep)
			}
		}
		// Every re-check resolves its logical side from the memo — the warm
		// state Compact exists to keep — and compiles its collected side.
		post := c.Stats()
		if post.FoldLocalHits != preStats.FoldLocalHits+len(lists) {
			t.Fatalf("re-checks after Compact hit the memo %d times, want %d (every logical list)",
				post.FoldLocalHits-preStats.FoldLocalHits, len(lists))
		}
		if post.FoldMisses != preStats.FoldMisses+len(lists) {
			t.Fatalf("re-checks after Compact compiled %d lists, want %d (every collected list)",
				post.FoldMisses-preStats.FoldMisses, len(lists))
		}
		if len(c.semMem) != remembered {
			t.Fatalf("memo grew %d -> %d re-checking seen switches", remembered, len(c.semMem))
		}
	}
}

// TestCheckerCompactShrinksDelta pins that compaction actually sheds
// dead intermediates on a fold-heavy workload.
func TestCheckerCompactShrinksDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewChecker()
	for i := 0; i < 16; i++ {
		if _, err := c.Check(randomRuleList(rng, 12), randomRuleList(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.DeltaSize()
	st, ok := c.Compact()
	if !ok {
		t.Fatal("Compact refused")
	}
	if st.Dropped == 0 || c.DeltaSize() >= before {
		t.Fatalf("compaction shed nothing: before %d, after %d (%+v)", before, c.DeltaSize(), st)
	}
}

// TestRefBackedCheckerCompactNoop: the reference backend cannot compact;
// the call must refuse gracefully and change nothing.
func TestRefBackedCheckerCompactNoop(t *testing.T) {
	c := NewCheckerBacked(func() Backend { return bdd.NewRefManager(NumVars) })
	if _, err := c.Check(randomRuleList(rand.New(rand.NewSource(1)), 5), randomRuleList(rand.New(rand.NewSource(2)), 5)); err != nil {
		t.Fatal(err)
	}
	size := c.Size()
	if _, ok := c.Compact(); ok {
		t.Fatal("Compact claimed success on the reference backend")
	}
	if c.Size() != size {
		t.Fatalf("no-op Compact changed Size: %d -> %d", size, c.Size())
	}
}
