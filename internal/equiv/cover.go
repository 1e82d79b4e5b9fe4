// Checking by coverage. A list is in union form when every allow rule
// names one exact (VRF, src EPG, dst EPG) triple and no allow rule follows
// a rule that is not an allow; it allows the union of its allow rules.
// Every compiled list is in union form (filters only allow), and so is
// every TCAM list read back from one: eviction drops rules, corruption
// moves a rule's ID or port bits. An allow rule lies inside its own list's
// allowed set, so it meets the difference the checker attributes exactly
// when the other list's rules of its triple do not cover its protocol ×
// port box.

package equiv

import (
	"cmp"
	"fmt"
	"slices"

	"scout/internal/rule"
)

// Check is one switch's verdict: whether logical (its compiled rules) and
// deployed (its collected TCAM rules, in match order) allow the same
// packets, and the rules that differ — Checker.Check's report. Lists in
// union form are decided by coverage, which reads an ID only by comparing
// it, so any ID checks; an inverted port range fails either list. Any
// other list (only a hand-built state holds one) is checked on a throwaway
// fork of b, an empty base when b is nil, and fails as Checker.Check does
// on a rule the encoding cannot represent; compiled reports that. Check
// keeps nothing, so switches check concurrently.
func (b *Base) Check(logical, deployed []rule.Rule) (rep *Report, compiled bool, err error) {
	l, unionL, errL := allowsOf(logical)
	d, unionD, errD := allowsOf(deployed)
	switch {
	case !unionL || !unionD:
		if b == nil {
			b = NewBaseWith()
		}
		rep, err := b.NewChecker().Check(logical, deployed)
		return rep, true, err
	case errL != nil:
		return nil, false, fmt.Errorf("encode logical rules: %w", errL)
	case errD != nil:
		return nil, false, fmt.Errorf("encode deployed rules: %w", errD)
	}
	il, id := byTriple(l), byTriple(d)
	missing, extra := uncovered(l, il, d, id), uncovered(d, id, l, il)
	slices.SortFunc(extra, rule.Compare)
	return &Report{Equivalent: missing == nil && extra == nil, MissingRules: missing, ExtraRules: extra}, false, nil
}

// allowsOf returns the allow rules that lead rules, whether rules are in
// union form, and the error of the first rule with an inverted port range.
func allowsOf(rules []rule.Rule) (allows []rule.Rule, union bool, err error) {
	n, union := len(rules), true
	for i := range rules {
		r := &rules[i]
		if err == nil {
			err = checkPorts(r.Match)
		}
		if r.Action != rule.Allow {
			n = min(n, i)
		} else if i > n || r.Match.WildcardVRF || r.Match.WildcardSrc || r.Match.WildcardDst {
			union = false
		}
	}
	return rules[:n], union, err
}

// uncovered returns the rules of a, in list order, that the rules of b on
// their triple do not cover; both hold exact allow rules only. Both lists
// are walked by triple in step, each through its byTriple index ia and ib.
// A run of a's rules on one triple that matches b's run rule for rule is
// covered as it stands.
func uncovered(a []rule.Rule, ia []int, b []rule.Rule, ib []int) []rule.Rule {
	at := func(idx []int, k int) int { // the position of the k-th rule by triple
		if idx != nil {
			return idx[k]
		}
		return k
	}
	var set []protoSpan
	var out []int
	for i, j, lo := 0, 0, 0; i < len(a); i = j {
		m := &a[at(ia, i)].Match
		for j = i + 1; j < len(a) && rule.CompareTriple(&a[at(ia, j)].Match, m) == 0; j++ {
		}
		for lo < len(b) && rule.CompareTriple(&b[at(ib, lo)].Match, m) < 0 {
			lo++
		}
		hi, same := lo, true
		for ; hi < len(b) && rule.CompareTriple(&b[at(ib, hi)].Match, m) == 0; hi++ {
			same = same && hi-lo < j-i && b[at(ib, hi)].Match == a[at(ia, i+hi-lo)].Match
		}
		if !same || hi-lo != j-i {
			set = set[:0]
			for k := lo; k < hi; k++ {
				bm := &b[at(ib, k)].Match
				set = append(set, protoSpan{bm.Proto, span{uint32(bm.PortLo), uint32(bm.PortHi) + 1}})
			}
			set = merge(set)
			for k := i; k < j; k++ {
				if k := at(ia, k); !covers(set, &a[k].Match) {
					out = append(out, k)
				}
			}
		}
		lo = hi
	}
	if out == nil {
		return nil
	}
	slices.Sort(out) // back to list order when a was walked through its index
	rules := make([]rule.Rule, len(out))
	for n, k := range out {
		rules[n] = a[k]
	}
	return rules
}

// byTriple returns nil when rules ascend by triple, so that they are read
// in place, as every compiled list and every TCAM list installed in one
// pass is, and rule.TripleIndex of them otherwise.
func byTriple(rules []rule.Rule) []int {
	for k := 1; k < len(rules); k++ {
		if rule.CompareTriple(&rules[k-1].Match, &rules[k].Match) > 0 {
			return rule.TripleIndex(rules)
		}
	}
	return nil
}

// protoSpan is the ports [lo, end) of one protocol, ProtoAny standing for
// every protocol.
type protoSpan struct {
	proto rule.Protocol
	span
}

func compareProtoSpan(x, y protoSpan) int {
	return cmp.Or(cmp.Compare(x.proto, y.proto), cmp.Compare(x.lo, y.lo))
}

// merge sorts set by protocol (ProtoAny first), then port, and joins the
// spans of one protocol that overlap or touch.
func merge(set []protoSpan) []protoSpan {
	slices.SortFunc(set, compareProtoSpan)
	out := set[:0]
	for _, s := range set {
		if n := len(out); n > 0 && out[n-1].proto == s.proto && s.lo <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, s.end)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// covers reports whether a merged set allows every packet m matches: from
// m's low port up, each port lies in a span of ProtoAny or, when m names a
// protocol, of that one.
func covers(set []protoSpan, m *rule.Match) bool {
	reach := func(proto rule.Protocol, at uint32) uint32 { // the end of proto's span holding at, or at
		k, found := slices.BinarySearchFunc(set, protoSpan{proto, span{lo: at}}, compareProtoSpan)
		if found {
			return set[k].end
		}
		if k > 0 && set[k-1].proto == proto && at < set[k-1].end {
			return set[k-1].end
		}
		return at
	}
	for at, end := uint32(m.PortLo), uint32(m.PortHi)+1; at < end; {
		next := reach(rule.ProtoAny, at)
		if m.Proto != rule.ProtoAny {
			next = reach(m.Proto, next)
		}
		if next == at {
			return false
		}
		at = next
	}
	return true
}
