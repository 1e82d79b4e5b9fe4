package oracle

import (
	"slices"

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
// disjoint filter port ranges), whereas the BDD checker is exact for
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
