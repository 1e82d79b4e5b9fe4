// Package probe implements the paper's alternative observation source
// (§III-C): active connectivity probing. An EPG pair becomes an
// observation when its endpoints are *allowed to communicate by the
// policy but fail to do so* in the dataplane. A probe is its rule's own
// header — the five match fields of an allow rule between concrete EPGs,
// at the rule's low port — so probing a switch is one function of its
// logical rules and its collected TCAM: Switch reads the packets off the
// rules, classifies them in one batch pass, and returns the rules whose
// probe the table does not allow — the missing rules, the same verdict
// the equivalence checker gives. Nothing is kept between calls.
//
// Probing complements the ROBDD equivalence checker: it samples the
// collected table at each allow rule's header instead of verifying the
// whole header space, and encodes nothing, so it reads rules a checker
// could not encode. The table is collected all the same, because a
// session keys its verdict replay on it. Both sources feed the same
// risk-model augmentation.
package probe

import (
	"slices"

	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// eligible reports whether r contributes a probe: concrete EPG pairs
// only, allow rules only (the paper's "allowed to communicate but fail to
// do so" observation).
func eligible(r *rule.Rule) bool {
	return r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst
}

// Switch probes one switch: every eligible rule of logical (the switch's
// compiled rule list) contributes one packet — its own match header at
// its low port, the paper's per-rule missing/present granularity — and
// the packets are classified against deployed (its collected TCAM rules,
// in match order) in one rule-major batch pass. It returns the eligible
// rules whose probe the table does not allow, each key once, and the
// number of probes sent. The missing rules ascend by EPG pair, then
// rule.Compare; of several rules of one key, the first in that order is
// kept (rule.Compare is total up to Key, so only rules of one key and one
// priority tie, and the unstable sort picks among them). It reads logical
// and deployed and writes nothing shared, so switches probe concurrently.
func Switch(logical, deployed []rule.Rule) (missing []rule.Rule, probes int) {
	pkts := make([]tcam.Packet, 0, len(logical)) // all but the default rules are eligible
	for i := range logical {
		if r := &logical[i]; eligible(r) {
			m := r.Match
			pkts = append(pkts, tcam.Packet{VRF: m.VRF, Src: m.SrcEPG, Dst: m.DstEPG, Proto: m.Proto, Port: m.PortLo})
		}
	}
	if len(pkts) == 0 {
		return nil, 0
	}
	allowed := tcam.Classify(deployed, pkts)
	next := 0 // the probe the next eligible rule sent
	for i := range logical {
		if r := &logical[i]; eligible(r) {
			if !allowed[next] {
				missing = append(missing, *r)
			}
			next++
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
	return kept, len(pkts)
}
