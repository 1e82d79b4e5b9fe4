package equiv

import (
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

func TestFingerprintSensitivity(t *testing.T) {
	base := []rule.Rule{
		allowRule(101, 1, 2, 80, object.Filter(5000)),
		allowRule(101, 2, 1, 80, object.Filter(5000)),
		rule.DefaultDeny(),
	}
	fp := Fingerprint(base)
	if fp != Fingerprint(base) {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(nil) != Fingerprint([]rule.Rule{}) {
		t.Error("nil and empty lists must fingerprint alike")
	}

	mutate := map[string]func([]rule.Rule){
		"swap order":        func(rs []rule.Rule) { rs[0], rs[1] = rs[1], rs[0] },
		"change port":       func(rs []rule.Rule) { rs[0].Match.PortHi = 81 },
		"change action":     func(rs []rule.Rule) { rs[0].Action = rule.Deny },
		"change priority":   func(rs []rule.Rule) { rs[0].Priority++ },
		"change provenance": func(rs []rule.Rule) { rs[0].Provenance = []object.Ref{object.Filter(5001)} },
		"drop provenance":   func(rs []rule.Rule) { rs[0].Provenance = nil },
		"set wildcard":      func(rs []rule.Rule) { rs[0].Match.WildcardSrc = true },
		"drop rule":         func(rs []rule.Rule) { copy(rs, rs[1:]) }, // truncation handled below
	}
	for name, f := range mutate {
		rs := oracle.CloneRules(base)
		f(rs)
		if name == "drop rule" {
			rs = rs[:len(rs)-1]
		}
		if Fingerprint(rs) == fp {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}

// TestCheckerReset verifies the session lifecycle hooks: Size grows with
// use, Reset returns the checker to cold, and post-Reset reports are
// identical to pre-Reset ones.
func TestCheckerReset(t *testing.T) {
	logical := []rule.Rule{
		allowRule(101, 1, 2, 80),
		allowRule(101, 3, 4, 443),
		rule.DefaultDeny(),
	}
	deployed := []rule.Rule{
		allowRule(101, 1, 2, 80),
		rule.DefaultDeny(),
	}
	c := NewChecker()
	fresh := c.DeltaSize()
	before, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if c.DeltaSize() <= fresh {
		t.Errorf("DeltaSize after a check = %d, want growth over %d", c.DeltaSize(), fresh)
	}
	c.Reset()
	if c.DeltaSize() != fresh {
		t.Errorf("DeltaSize after Reset = %d, want %d", c.DeltaSize(), fresh)
	}
	after, err := c.Check(logical, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if before.Equivalent != after.Equivalent || len(before.MissingRules) != len(after.MissingRules) {
		t.Error("Reset changed check results")
	}
	for i := range before.MissingRules {
		if !before.MissingRules[i].Equal(after.MissingRules[i]) {
			t.Errorf("missing rule %d differs after Reset", i)
		}
	}
}
