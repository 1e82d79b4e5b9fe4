// Package probe implements the paper's alternative observation source
// (§III-C): active connectivity probing. An EPG pair becomes an
// observation when its endpoints are *allowed to communicate by the
// policy but fail to do so* in the dataplane. A probe is its rule's own
// header — the five match fields of an allow rule between concrete EPGs,
// at the rule's low port — so probing a switch is one function of its
// logical rules and its collected TCAM: Switch reads the probes off the
// rules, finds each probe's first match through an index of the table by
// exact (VRF, src EPG, dst EPG) triple, and returns the rules whose probe
// the table does not allow — the missing rules, the same verdict the
// equivalence checker gives. Nothing is kept between calls.
//
// Probing complements the ROBDD equivalence checker: it samples the
// collected table at each allow rule's header instead of verifying the
// whole header space, and encodes nothing, so it reads rules a checker
// could not encode. The table is collected all the same, because a
// session keys its verdict replay on it. Both sources feed the same
// risk-model augmentation.
package probe

import (
	"cmp"
	"slices"

	"scout/internal/policy"
	"scout/internal/rule"
)

// eligible reports whether r contributes a probe: concrete EPG pairs
// only, allow rules only (the paper's "allowed to communicate but fail to
// do so" observation).
func eligible(r *rule.Rule) bool {
	return r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst
}

// Switch probes one switch: every eligible rule of logical (the switch's
// compiled rule list) contributes one probe — its own match header at its
// low port, the paper's per-rule missing/present granularity — whose first
// match in deployed (its collected TCAM rules, in match order) decides it.
// It returns the eligible rules whose probe the table does not allow, each
// key once, and the number of probes sent. The missing rules ascend by EPG
// pair, then rule.Compare; of several rules of one key, the first in that
// order is kept (rule.Compare is total up to Key, so only rules of one key
// and one priority tie, and the unstable sort picks among them). It reads
// logical and deployed and writes nothing shared, so switches probe
// concurrently.
func Switch(logical, deployed []rule.Rule) (missing []rule.Rule, probes int) {
	// A probe's header is concrete, so only two kinds of rule can cover it:
	// a rule of its own (VRF, src EPG, dst EPG) triple, or a rule with a
	// wildcard in one of those fields. exact indexes the first kind by
	// position, ordered by triple and then by position; wild holds the
	// second kind's positions, ascending — a compiled list's default deny.
	exact := make([]int, 0, len(deployed))
	var wild []int
	for i := range deployed {
		if m := &deployed[i].Match; m.WildcardVRF || m.WildcardSrc || m.WildcardDst {
			wild = append(wild, i)
		} else {
			exact = append(exact, i)
		}
	}
	slices.SortFunc(exact, func(a, b int) int {
		return cmp.Or(compareTriple(&deployed[a].Match, &deployed[b].Match), cmp.Compare(a, b))
	})
	for i := range logical {
		r := &logical[i]
		if !eligible(r) {
			continue
		}
		probes++
		// The first match is the earlier of the first covering rule in the
		// triple's run and the first covering wildcard rule; each scan stops
		// at the best position found so far.
		m, best := &r.Match, len(deployed)
		run, _ := slices.BinarySearchFunc(exact, m, func(at int, m *rule.Match) int { return compareTriple(&deployed[at].Match, m) })
		for _, at := range exact[run:] {
			if compareTriple(&deployed[at].Match, m) != 0 {
				break
			}
			if deployed[at].Match.Covers(m.VRF, m.SrcEPG, m.DstEPG, m.Proto, m.PortLo) {
				best = at
				break
			}
		}
		for _, at := range wild {
			if at >= best {
				break
			}
			if deployed[at].Match.Covers(m.VRF, m.SrcEPG, m.DstEPG, m.Proto, m.PortLo) {
				best = at
				break
			}
		}
		if best == len(deployed) || deployed[best].Action != rule.Allow {
			missing = append(missing, *r)
		}
	}
	slices.SortFunc(missing, func(a, b rule.Rule) int {
		pa := policy.MakeEPGPair(a.Match.SrcEPG, a.Match.DstEPG)
		if c := pa.Compare(policy.MakeEPGPair(b.Match.SrcEPG, b.Match.DstEPG)); c != 0 {
			return c
		}
		return rule.Compare(a, b)
	})
	seen := make(map[rule.Key]struct{}, len(missing))
	kept := missing[:0]
	for _, r := range missing {
		if _, dup := seen[r.Key()]; !dup {
			seen[r.Key()] = struct{}{}
			kept = append(kept, r)
		}
	}
	return kept, probes
}

// compareTriple orders matches by (VRF, src EPG, dst EPG).
func compareTriple(a, b *rule.Match) int {
	return cmp.Or(cmp.Compare(a.VRF, b.VRF), cmp.Compare(a.SrcEPG, b.SrcEPG), cmp.Compare(a.DstEPG, b.DstEPG))
}
