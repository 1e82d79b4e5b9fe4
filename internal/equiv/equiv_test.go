package equiv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

func allowRule(vrf, src, dst object.ID, port uint16, prov ...object.Ref) rule.Rule {
	return rule.Rule{
		Match: rule.Match{
			VRF: vrf, SrcEPG: src, DstEPG: dst,
			Proto: rule.ProtoTCP, PortLo: port, PortHi: port,
		},
		Action:     rule.Allow,
		Priority:   10,
		Provenance: prov,
	}
}

func withDeny(rules ...rule.Rule) []rule.Rule {
	return append(rules, rule.DefaultDeny())
}

func TestEquivalentIdenticalSets(t *testing.T) {
	c := NewChecker()
	l := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 80))
	rep, err := c.Check(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent || len(rep.MissingRules) != 0 || len(rep.ExtraRules) != 0 {
		t.Errorf("identical sets must be equivalent: %+v", rep)
	}
}

func TestMissingRuleDetected(t *testing.T) {
	c := NewChecker()
	logical := withDeny(
		allowRule(1, 2, 3, 80, object.Filter(80)),
		allowRule(1, 2, 3, 700, object.Filter(700)),
	)
	deployed := withDeny(allowRule(1, 2, 3, 80))
	rep, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent {
		t.Fatal("must detect missing rule")
	}
	if len(rep.MissingRules) != 1 || rep.MissingRules[0].Match.PortLo != 700 {
		t.Errorf("MissingRules = %v, want the port-700 rule", rep.MissingRules)
	}
	if len(rep.MissingRules[0].Provenance) == 0 {
		t.Error("missing rules must keep their provenance")
	}
	if len(rep.ExtraRules) != 0 {
		t.Errorf("no extra rules expected, got %v", rep.ExtraRules)
	}
}

func TestExtraRuleDetected(t *testing.T) {
	c := NewChecker()
	logical := withDeny(allowRule(1, 2, 3, 80))
	deployed := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 9, 9, 22))
	rep, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent {
		t.Fatal("must detect extra behaviour")
	}
	if len(rep.ExtraRules) != 1 || rep.ExtraRules[0].Match.SrcEPG != 9 {
		t.Errorf("ExtraRules = %v", rep.ExtraRules)
	}
}

func TestCorruptedRuleIsMissingPlusExtra(t *testing.T) {
	// A corrupted VRF field: intended behaviour absent AND bogus
	// behaviour present — the checker should flag both.
	c := NewChecker()
	logical := withDeny(allowRule(1, 2, 3, 80))
	deployed := withDeny(allowRule(4097, 2, 3, 80)) // bit 12 flipped
	rep, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent || len(rep.MissingRules) != 1 || len(rep.ExtraRules) != 1 {
		t.Errorf("corruption: missing=%d extra=%d", len(rep.MissingRules), len(rep.ExtraRules))
	}
}

func TestSemanticEquivalenceDespiteDifferentRules(t *testing.T) {
	// Port range [80,81] equals two single-port rules — behaviourally
	// identical even though the key sets differ. The BDD checker must say
	// equivalent; the naive differ (documented limitation) must not.
	c := NewChecker()
	ranged := rule.Rule{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 81},
		Action: rule.Allow, Priority: 10,
	}
	logical := withDeny(ranged)
	deployed := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 2, 3, 81))
	rep, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Error("BDD checker must see through rule-splitting")
	}
	if missing, extra := oracle.NaiveCheck(logical, deployed); len(missing)+len(extra) == 0 {
		t.Error("naive differ cannot see through rule-splitting (oracle sanity)")
	}
}

func TestPartialRangeOverlapMissing(t *testing.T) {
	// Logical allows ports [100,110]; deployed only [100,105]: missing.
	c := NewChecker()
	logical := withDeny(rule.Rule{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 100, PortHi: 110},
		Action: rule.Allow, Priority: 10,
	})
	deployed := withDeny(rule.Rule{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 100, PortHi: 105},
		Action: rule.Allow, Priority: 10,
	})
	rep, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent || len(rep.MissingRules) != 1 {
		t.Errorf("partially-covered range must be missing: %+v", rep)
	}
}

func TestPriorityShadowing(t *testing.T) {
	// A deny above an allow shadows it: semantics = nothing allowed.
	c := NewChecker()
	deny := rule.Rule{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80},
		Action: rule.Deny, Priority: 20,
	}
	shadowed := []rule.Rule{deny, allowRule(1, 2, 3, 80), rule.DefaultDeny()}
	empty := []rule.Rule{rule.DefaultDeny()}
	rep, err := c.Check(shadowed, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Error("shadowed allow contributes nothing; sets must be equivalent")
	}
}

func TestEmptySets(t *testing.T) {
	c := NewChecker()
	rep, err := c.Check(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Error("two empty rule sets are equivalent")
	}
	rep, err = c.Check(withDeny(allowRule(1, 2, 3, 80)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent || len(rep.MissingRules) != 1 {
		t.Error("allow vs empty must be missing")
	}
}

func TestEncodingRejectsOversizeIDs(t *testing.T) {
	c := NewChecker()
	bad := allowRule(1<<17, 2, 3, 80)
	if _, err := c.Check(withDeny(bad), nil); err == nil {
		t.Error("IDs beyond the bit width must be rejected")
	}
}

func TestWildcardFields(t *testing.T) {
	c := NewChecker()
	anySrc := rule.Rule{
		Match: rule.Match{
			VRF: 1, WildcardSrc: true, DstEPG: 3,
			Proto: rule.ProtoTCP, PortLo: 80, PortHi: 80,
		},
		Action: rule.Allow, Priority: 10,
	}
	specific := withDeny(allowRule(1, 2, 3, 80))
	rep, err := c.Check(withDeny(anySrc), specific)
	if err != nil {
		t.Fatal(err)
	}
	// Wildcard-src allows more than the single src=2 rule.
	if rep.Equivalent {
		t.Error("wildcard src covers strictly more traffic")
	}
	if len(rep.MissingRules) != 1 {
		t.Errorf("the wildcard rule is partially missing: %+v", rep.MissingRules)
	}
	if len(rep.ExtraRules) != 0 {
		t.Errorf("specific ⊆ wildcard, no extra behaviour: %v", rep.ExtraRules)
	}
}

// TestCheckerAgreesWithNaiveOnDisjointRules is the oracle property: when
// every rule has a distinct, non-overlapping match (as compiler output on
// generated workloads does), BDD missing/extra results must exactly equal
// naive key-set differences.
func TestCheckerAgreesWithNaiveOnDisjointRules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Universe of disjoint rules: distinct (src, dst, port-block).
		var universe []rule.Rule
		for i := 0; i < 12; i++ {
			universe = append(universe, allowRule(
				object.ID(1+rng.Intn(2)),
				object.ID(rng.Intn(4)),
				object.ID(4+rng.Intn(4)),
				uint16(1000+i*16), // disjoint ports
			))
		}
		universe = oracle.Dedupe(universe)
		pick := func() []rule.Rule {
			var out []rule.Rule
			for _, r := range universe {
				if rng.Intn(2) == 0 {
					out = append(out, r)
				}
			}
			return withDeny(out...)
		}
		logical, deployed := pick(), pick()

		c := NewChecker()
		rep, err := c.Check(logical, deployed)
		if err != nil {
			return false
		}
		missing, extra := oracle.NaiveCheck(logical, deployed)
		if rep.Equivalent != (len(missing)+len(extra) == 0) {
			return false
		}
		return setsEqual(rule.KeySet(rep.MissingRules), rule.KeySet(missing)) &&
			setsEqual(rule.KeySet(rep.ExtraRules), rule.KeySet(extra))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func setsEqual(a, b map[rule.Key]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func TestCheckerReuseAcrossChecks(t *testing.T) {
	c := NewChecker()
	l1 := withDeny(allowRule(1, 2, 3, 80))
	l2 := withDeny(allowRule(1, 2, 3, 81))
	for i := 0; i < 3; i++ {
		r1, err := c.Check(l1, l1)
		if err != nil || !r1.Equivalent {
			t.Fatalf("iteration %d: %v %v", i, err, r1)
		}
		r2, err := c.Check(l1, l2)
		if err != nil || r2.Equivalent {
			t.Fatalf("iteration %d: reuse broke the checker", i)
		}
	}
}
