// Package probe implements the paper's alternative observation source
// (§III-C): active connectivity probing. An EPG pair becomes an
// observation when its endpoints are *allowed to communicate by the
// policy but fail to do so* in the dataplane. A probe is its rule's own
// header — the five match fields of an allow rule between concrete EPGs,
// at the rule's low port — so probing a switch is one function of its
// logical rules and its collected TCAM: Switch reads the packets off the
// rules, classifies them in one batch pass, and reports the violations —
// policy-allowed probes the table does not allow (missing rules). Nothing
// is kept between calls.
//
// Probing complements the ROBDD equivalence checker: it samples the
// collected table at each allow rule's header instead of verifying the
// whole header space, and encodes nothing, so it reads rules a checker
// could not encode. The table is collected all the same, because a
// session keys its verdict replay on it. Both sources feed the same
// risk-model augmentation.
package probe

import (
	"fmt"
	"sort"

	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// Packet is one probe: the header tuple a pair's traffic would carry, in
// the form the dataplane classifies.
type Packet = tcam.Packet

// Violation is one probe outcome that contradicts the policy.
type Violation struct {
	Switch object.ID
	Pair   policy.EPGPair
	Packet Packet
	// Expected is the action the policy prescribes; Got is what the TCAM
	// did (Got == 0 when no rule matched at all).
	Expected rule.Action
	Got      rule.Action
	// Rule is the logical rule the probe was derived from; its
	// provenance identifies the implicated policy objects. It is the
	// deployment's rule by value and shares that rule's provenance slice
	// (see rule.Rule).
	Rule rule.Rule
}

// String renders the violation for logs.
func (v Violation) String() string {
	p := v.Packet
	return fmt.Sprintf("switch %d pair %s probe vrf=%d %d->%d %s:%d: want %v, got %v",
		v.Switch, v.Pair, p.VRF, p.Src, p.Dst, p.Proto, p.Port, v.Expected, v.Got)
}

// eligible reports whether r contributes a probe: concrete EPG pairs
// only, allow rules only (the paper's "allowed to communicate but fail to
// do so" observation).
func eligible(r *rule.Rule) bool {
	return r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst
}

// Switch probes switch sw: every eligible rule of logical (the switch's
// compiled rule list) contributes one packet — its own match header at
// its low port, the paper's per-rule missing/present granularity — the
// packets are classified against deployed (its collected TCAM rules, in
// match order) in one rule-major batch pass, and the outcomes that
// contradict their rules are returned in deterministic order, with the
// number of probes sent. It reads logical and deployed and writes nothing
// shared, so switches probe concurrently.
func Switch(sw object.ID, logical, deployed []rule.Rule) (violations []Violation, probes int) {
	pkts := make([]Packet, 0, len(logical)) // all but the default rules are eligible
	for i := range logical {
		if r := &logical[i]; eligible(r) {
			m := r.Match
			pkts = append(pkts, Packet{VRF: m.VRF, Src: m.SrcEPG, Dst: m.DstEPG, Proto: m.Proto, Port: m.PortLo})
		}
	}
	if len(pkts) == 0 {
		return nil, 0
	}
	outcomes := tcam.Classify(deployed, pkts)
	next := 0 // the probe the next eligible rule sent
	for i := range logical {
		r := &logical[i]
		if !eligible(r) {
			continue
		}
		pkt, o := pkts[next], outcomes[next]
		next++
		if o.Matched && o.Action == r.Action {
			continue
		}
		got := o.Action
		if !o.Matched {
			got = 0
		}
		violations = append(violations, Violation{
			Switch:   sw,
			Pair:     policy.MakeEPGPair(pkt.Src, pkt.Dst),
			Packet:   pkt,
			Expected: r.Action,
			Got:      got,
			Rule:     *r,
		})
	}
	sort.Slice(violations, func(i, j int) bool { return violationLess(violations[i], violations[j]) })
	return violations, len(pkts)
}

// violationLess orders one switch's violations by pair, then the source
// rule under rule.Less. The rule comparison makes the order total for any
// deduped rule list (the packet is a pure function of the rule), so tied
// probes — same pair, proto, and port but e.g. opposite direction or
// different port ranges — sort identically regardless of insertion order.
func violationLess(a, b Violation) bool {
	if a.Pair != b.Pair {
		return a.Pair.Less(b.Pair)
	}
	return rule.Less(a.Rule, b.Rule)
}

// MissingRules converts violations into the missing-rule form the risk
// models consume (the same shape the equivalence checker outputs): the
// logical rules whose behaviour the probes showed to be absent.
func MissingRules(violations []Violation) []rule.Rule {
	seen := make(map[rule.Key]struct{}, len(violations))
	var out []rule.Rule
	for _, v := range violations {
		k := v.Rule.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v.Rule)
	}
	return out
}
