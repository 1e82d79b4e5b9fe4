package probe

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
)

// The probe runner: a logical and a deployed rule list, read from an
// oracle.Choices, probed by Switch and held to a first-match scan of the
// deployed list per eligible logical rule. Switch must send one probe per
// eligible rule, name each key the scan finds unallowed exactly once,
// return its rules ascending by (pair, rule.Compare), return only eligible
// logical rules, and write neither list. The key space is small, so
// logical keys repeat, denies shadow allows, wildcard rules resolve
// probes, some ahead of a covering rule of the probe's own triple, and
// some probes' triples no exact deployed rule names.

// probeStats is what a run exercised.
type probeStats struct {
	empty      int // empty logical lists
	ineligible int // logical deny or wildcard-src/dst rules
	dupKeys    int // logical lists holding some key twice
	shadowed   int // probes a deny resolves ahead of an allow that covers them
	wildcard   int // probes a deployed wildcard rule resolves
	wildFirst  int // probes a wildcard rule resolves ahead of a later covering rule of the probe's own triple
	noTriple   int // probes whose triple no exact deployed rule names
	uncovered  int // probes no deployed rule covers
	missing    int // missing rules returned
}

// missingOrder is the order Switch returns missing rules in: by EPG pair,
// then rule.Compare.
func missingOrder(a, b rule.Rule) int {
	pa, pb := policy.MakeEPGPair(a.Match.SrcEPG, a.Match.DstEPG), policy.MakeEPGPair(b.Match.SrcEPG, b.Match.DstEPG)
	return cmp.Or(pa.Compare(pb), rule.Compare(a, b))
}

// drawRule returns a rule of the small key space — VRF 1 or 2, EPGs 1-3,
// TCP or UDP, ports within [0,3] — an allow three times in four, one in
// eight with a wildcard source and one in eight with a wildcard
// destination.
func drawRule(c *oracle.Choices, filter int) rule.Rule {
	lo := uint16(c.Intn(3))
	r := rule.Rule{
		Match: rule.Match{VRF: object.ID(1 + c.Intn(2)), SrcEPG: object.ID(1 + c.Intn(3)), DstEPG: object.ID(1 + c.Intn(3)),
			Proto: []rule.Protocol{rule.ProtoTCP, rule.ProtoUDP}[c.Intn(2)], PortLo: lo, PortHi: lo + uint16(c.Intn(2))},
		Action: rule.Allow, Priority: 10 * c.Intn(3), Provenance: []object.Ref{object.Filter(object.ID(filter))},
	}
	if c.Chance(4) {
		r.Action = rule.Deny
	}
	if c.Chance(8) {
		r.Match.SrcEPG, r.Match.WildcardSrc = 0, true
	}
	if c.Chance(8) {
		r.Match.DstEPG, r.Match.WildcardDst = 0, true
	}
	return r
}

// drawCase returns a logical list of up to 9 rules, one in four a copy of
// an earlier one at a new priority or with new provenance, and a deployed
// list of up to 9 rules in match order: copies of logical rules, some
// turned into denies one priority step above, drawn rules (wildcard ones,
// and ones that cover no probe, among them), a wildcard-VRF or any-protocol
// rule, or the default deny.
func drawCase(c *oracle.Choices) (logical, deployed []rule.Rule) {
	filter := 0
	for n := c.Intn(10); n > 0; n-- {
		filter++
		if len(logical) > 0 && c.Chance(4) {
			r := logical[c.Intn(len(logical))]
			if c.Chance(2) {
				r.Priority += 10
			} else {
				r.Provenance = []object.Ref{object.Filter(object.ID(filter))}
			}
			logical = append(logical, r)
			continue
		}
		logical = append(logical, drawRule(c, filter))
	}
	for n := c.Intn(10); n > 0; n-- {
		filter++
		switch {
		case len(logical) > 0 && c.Chance(2):
			r := logical[c.Intn(len(logical))]
			if c.Chance(4) {
				r.Action, r.Priority = rule.Deny, r.Priority+10
			}
			deployed = append(deployed, r)
		case c.Chance(8):
			deployed = append(deployed, rule.DefaultDeny())
		default:
			r := drawRule(c, filter)
			if c.Chance(8) {
				r.Match.VRF, r.Match.WildcardVRF = 0, true
			}
			if c.Chance(8) {
				r.Match.Proto = rule.ProtoAny
			}
			deployed = append(deployed, r)
		}
	}
	slices.SortStableFunc(deployed, func(a, b rule.Rule) int { return cmp.Compare(b.Priority, a.Priority) })
	return logical, deployed
}

// probed is the reference's eligibility: an allow rule between concrete
// EPGs sends a probe.
func probed(r rule.Rule) bool {
	return r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst
}

// wild reports whether m has a wildcard in VRF, src or dst.
func wild(m rule.Match) bool { return m.WildcardVRF || m.WildcardSrc || m.WildcardDst }

// ofTriple reports whether d is an exact rule of m's (VRF, src, dst).
func ofTriple(d rule.Rule, m rule.Match) bool {
	return !wild(d.Match) && d.Match.VRF == m.VRF && d.Match.SrcEPG == m.SrcEPG && d.Match.DstEPG == m.DstEPG
}

// hits reports whether d covers r's probe.
func hits(d, r rule.Rule) bool {
	m := r.Match
	return d.Match.Covers(m.VRF, m.SrcEPG, m.DstEPG, m.Proto, m.PortLo)
}

// scan is the reference: whether the first deployed rule covering r's
// probe allows it, and that rule's index (-1 when none covers it).
func scan(deployed []rule.Rule, r rule.Rule) (allowed bool, at int) {
	for i, d := range deployed {
		if hits(d, r) {
			return d.Action == rule.Allow, i
		}
	}
	return false, -1
}

// runProbe draws one case from c, probes it and checks Switch against the
// scan, counting into stats what the case exercised.
func runProbe(t *testing.T, c *oracle.Choices, stats *probeStats) {
	t.Helper()
	logical, deployed := drawCase(c)
	lent, table := oracle.CloneRules(logical), oracle.CloneRules(deployed)
	missing, probes := Switch(logical, deployed)
	if !rule.SlicesEqual(logical, lent) || !rule.SlicesEqual(deployed, table) {
		t.Fatalf("Switch wrote its input:\nlogical %v\ndeployed %v", logical, deployed)
	}

	eligibleN := 0
	want := make(map[rule.Key]bool)
	for _, r := range logical {
		if !probed(r) {
			stats.ineligible++
			continue
		}
		eligibleN++
		allowed, at := scan(deployed, r)
		switch {
		case at < 0:
			stats.uncovered++
		case wild(deployed[at].Match):
			stats.wildcard++
			if slices.ContainsFunc(deployed[at+1:], func(d rule.Rule) bool { return ofTriple(d, r.Match) && hits(d, r) }) {
				stats.wildFirst++
			}
		}
		if !slices.ContainsFunc(deployed, func(d rule.Rule) bool { return ofTriple(d, r.Match) }) {
			stats.noTriple++
		}
		if !allowed && at >= 0 {
			if later, _ := scan(deployed[at+1:], r); later {
				stats.shadowed++
			}
		}
		if !allowed {
			want[r.Key()] = true
		}
	}
	if len(logical) == 0 {
		stats.empty++
	}
	if len(rule.KeySet(logical)) < len(logical) {
		stats.dupKeys++
	}
	stats.missing += len(missing)

	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("logical %v\ndeployed %v\nSwitch = %v, %d probes: "+format, append([]any{logical, deployed, missing, probes}, args...)...)
	}
	if probes != eligibleN {
		failf("want %d probes, one per eligible rule", eligibleN)
	}
	got := make(map[rule.Key]bool)
	for i, r := range missing {
		if got[r.Key()] {
			failf("rule %d repeats key %v", i, r.Key())
		}
		got[r.Key()] = true
		if i > 0 && missingOrder(missing[i-1], r) >= 0 {
			failf("rules %d and %d do not ascend by (pair, rule.Compare)", i-1, i)
		}
		if !slices.ContainsFunc(logical, func(l rule.Rule) bool { return probed(l) && l.Equal(r) }) {
			failf("rule %d, %v, is no eligible logical rule", i, r)
		}
	}
	if !maps.Equal(got, want) {
		failf("missing keys %v, the scan's %v", got, want)
	}
}

// TestProbeMatchesFirstMatchScan runs the runner over seeded cases and
// fails unless they exercised every shape the runner draws.
func TestProbeMatchesFirstMatchScan(t *testing.T) {
	var stats probeStats
	for seed := int64(0); seed < 400; seed++ {
		runProbe(t, oracle.FromSeed(seed), &stats)
	}
	for what, n := range map[string]int{
		"drew an empty logical list": stats.empty, "drew an ineligible logical rule": stats.ineligible,
		"drew a logical key twice": stats.dupKeys, "shadowed an allow with a deny": stats.shadowed,
		"resolved a probe on a wildcard rule": stats.wildcard, "left a probe uncovered": stats.uncovered,
		"resolved a probe on a wildcard rule ahead of its triple's covering rule": stats.wildFirst,
		"sent a probe whose triple no exact deployed rule names":                  stats.noTriple,
		"found a missing rule": stats.missing,
	} {
		if n == 0 {
			t.Errorf("no case %s; the runner proves less than it claims", what)
		}
	}
}

// FuzzProbe runs the fuzzer's bytes as a case.
func FuzzProbe(f *testing.F) {
	f.Add([]byte{})
	// Two logical allow rules of one key at priorities 0 and 10, both
	// missing behind a deployed deny of that key at 10 that shadows a
	// deployed copy of the first: Switch keeps the priority-10 rule.
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1})
	// seed#2: a logical allow rule on (1, 1, 2), deployed as a copy at
	// priority 0 behind a wildcard-source deny at 10 that covers its probe:
	// the wildcard rule decides ahead of the probe's own triple, so the
	// rule is missing.
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1})
	// seed#3: a logical allow rule on (1, 1, 2) over a table holding an
	// exact allow on (1, 1, 3) and a wildcard-destination allow on (1, 1):
	// no exact rule names the probe's triple, the wildcard allows it, and
	// nothing is missing.
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2, 1, 1, 0, 0, 0, 2, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runProbe(t, oracle.FromBytes(data), &probeStats{})
	})
}
