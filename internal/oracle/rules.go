package oracle

import (
	"slices"

	"scout/internal/object"
	"scout/internal/rule"
)

// CloneRules deep-copies a rule list, provenance included: a twin no write
// to the original reaches. Production shares rules by assignment.
func CloneRules(rules []rule.Rule) []rule.Rule {
	out := slices.Clone(rules)
	for i := range out {
		out[i].Provenance = slices.Clone(out[i].Provenance)
	}
	return out
}

// NaiveCheck is a key-set differ: missing are the logical allow rules
// whose exact Key is absent from the deployed set, extra the deployed
// allow rules absent from the logical set. It is sound only when rule
// matches do not partially overlap (which holds for compiler output with
// disjoint filter port ranges), whereas equiv's checks are exact for
// arbitrary overlaps.
func NaiveCheck(logical, deployed []rule.Rule) (missing, extra []rule.Rule) {
	return absent(logical, deployed), absent(deployed, logical)
}

// absent returns the allow rules of from whose Key is not in to.
func absent(from, to []rule.Rule) []rule.Rule {
	keys := rule.KeySet(to)
	var out []rule.Rule
	for _, r := range from {
		if _, ok := keys[r.Key()]; !ok && r.Action == rule.Allow {
			out = append(out, r)
		}
	}
	return out
}

// Dedupe removes rules with duplicate Keys, keeping the first (highest
// priority after rule.Sort), in place. The input must already be sorted.
// The compiler's own deduplication is compared against it.
func Dedupe(rules []rule.Rule) []rule.Rule {
	seen := make(map[rule.Key]struct{}, len(rules))
	out := rules[:0]
	for _, r := range rules {
		k := r.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

// Renumber returns rules with every VRF, source and destination ID mapped
// by f, wildcard fields included; nil stays nil.
func Renumber(rules []rule.Rule, f func(object.ID) object.ID) []rule.Rule {
	if rules == nil {
		return nil
	}
	out := slices.Clone(rules)
	for i := range out {
		m := &out[i].Match
		m.VRF, m.SrcEPG, m.DstEPG = f(m.VRF), f(m.SrcEPG), f(m.DstEPG)
	}
	return out
}

// DenseIDs maps the IDs the lists' matches name, in ascending order, onto
// 0, 1, … (to), and back (from): an order-preserving renumbering into as
// few bits as the lists need. A check reads an ID only by comparing it
// with others, so renumbered lists check as the lists do.
func DenseIDs(lists ...[]rule.Rule) (to, from func(object.ID) object.ID) {
	var ids []object.ID
	for _, rules := range lists {
		for _, r := range rules {
			ids = append(ids, r.Match.VRF, r.Match.SrcEPG, r.Match.DstEPG)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	to = func(id object.ID) object.ID {
		k, _ := slices.BinarySearch(ids, id)
		return object.ID(k)
	}
	return to, func(k object.ID) object.ID { return ids[k] }
}

// Covers reports whether m matches the concrete packet 5-tuple (vrf, src,
// dst, proto, port): the first-match scan's test of one rule.
func Covers(m rule.Match, vrf, src, dst object.ID, proto rule.Protocol, port uint16) bool {
	if !m.WildcardVRF && m.VRF != vrf {
		return false
	}
	if !m.WildcardSrc && m.SrcEPG != src {
		return false
	}
	if !m.WildcardDst && m.DstEPG != dst {
		return false
	}
	if m.Proto != rule.ProtoAny && m.Proto != proto {
		return false
	}
	return m.PortLo <= port && port <= m.PortHi
}
