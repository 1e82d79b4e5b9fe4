// Rule-list fingerprints name the warm store's files: a deployment's
// fingerprint keys its base and verdict files, and each verdict in the file
// is keyed by the fingerprints of the logical and deployed rule lists it
// was computed from. In memory a Session witnesses a verdict by those lists
// themselves (rule.SlicesEqual); it hashes only where a file is written or
// read: when it saves, and when the run that loads a verdict file hashes
// its own lists and adopts the verdicts they match. A session with no store
// hashes nothing.

package equiv

import (
	"sort"

	"scout/internal/object"
	"scout/internal/rule"
)

// hasher is the state of a 64-bit multiply-mix hash over whole words. The
// fingerprints push four to ten words a rule through it on every analysis,
// so a word costs one multiply and one shift and word inlines into their
// loops. Match hashing lives here once so Fingerprint and
// SemanticsFingerprint cannot drift apart when rule.Match grows a field.
type hasher uint64

const (
	hashSeed = 0xcbf29ce484222325
	hashMul  = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// word mixes v in. The multiply carries every input bit upwards and the
// shift folds the high half back down, so the next word meets a state all
// of whose bits depend on this one; xor-then-multiply does not commute, so
// the hash is order-sensitive.
func (h *hasher) word(v uint64) {
	x := (uint64(*h) ^ v) * hashMul
	*h = hasher(x ^ x>>32)
}

// sum finishes the hash with one more round, so the last word is mixed as
// well as the first.
func (h hasher) sum() uint64 {
	h.word(0)
	return uint64(h)
}

// match hashes every field of m, in three words.
func (h *hasher) match(m rule.Match) {
	var flags uint64
	if m.WildcardVRF {
		flags |= 1
	}
	if m.WildcardSrc {
		flags |= 2
	}
	if m.WildcardDst {
		flags |= 4
	}
	h.word(uint64(m.VRF)<<32 | uint64(m.SrcEPG))
	h.word(uint64(m.DstEPG)<<32 | uint64(m.PortLo)<<16 | uint64(m.PortHi))
	h.word(flags<<8 | uint64(m.Proto))
}

// Fingerprint returns a 64-bit hash of a rule list. The hash is
// order-sensitive and covers every field that can influence a check report
// — match, action, priority, and provenance — so two lists with equal
// fingerprints produce identical Check output. Collisions are possible in
// principle (64-bit hash) but need ~2^32 distinct rule sets per switch to
// become likely; callers that cannot tolerate that keep the rule lists and
// compare with rule.SlicesEqual instead, as a Session does in memory. The value is stable within one
// build of the program, not across versions: it keys the warm-state
// store's files, and a file keyed by another version's value is simply
// never found.
func Fingerprint(rules []rule.Rule) uint64 {
	h := hasher(hashSeed)
	h.word(uint64(len(rules)))
	for i := range rules {
		r := &rules[i]
		h.match(r.Match)
		h.word(uint64(len(r.Provenance))<<32 | uint64(uint32(r.Action)))
		h.word(uint64(int64(r.Priority)))
		for _, ref := range r.Provenance {
			h.word(uint64(uint32(ref.Kind))<<32 | uint64(ref.ID))
		}
	}
	return h.sum()
}

// semTag separates SemanticsFingerprint's keyspace from Fingerprint's.
const semTag = 's' | 'e'<<8 | 'm'<<16

// SemanticsFingerprint canonicalizes an ordered rule list into its
// semantics key: a 64-bit hash of exactly the fields the compiler
// consumes — each rule's match and action, in list order. Priority and
// provenance are excluded: the compiler interprets the list positionally,
// so they cannot influence the allowed-set BDD. Two lists with equal
// semantics fingerprints compile to the same BDD. The keyspace is
// domain-separated from Fingerprint by a leading tag, so the two hashes
// never alias each other's inputs. The same 64-bit collision caveat as
// Fingerprint applies.
//
// Deprecated: a base holds one root per list it was built from, and a
// fork compiles every list it checks, so nothing hashes semantics any
// more. It stays until bench/ stops calling it (ROADMAP item 1, shims).
func SemanticsFingerprint(rules []rule.Rule) uint64 {
	h := hasher(hashSeed)
	h.word(semTag)
	h.word(uint64(len(rules)))
	for i := range rules {
		h.match(rules[i].Match)
		h.word(uint64(uint32(rules[i].Action)))
	}
	return h.sum()
}

// DeploymentFingerprints hashes a whole deployment's per-switch rule
// lists (in ascending switch-ID order) into one 64-bit key, returned beside
// the per-switch fingerprints it was folded from, so a caller that also
// needs those (a Session with a warm store, whose verdict file keys each
// switch by its lists' fingerprints) hashes each rule list once. The key
// names the warm store's files for the deployment: only a Session with a
// store calls it, files its base and verdicts under it, and loads or builds
// the base again when it moves. The same collision caveat as Fingerprint
// applies.
func DeploymentFingerprints(bySwitch map[object.ID][]rule.Rule) (map[object.ID]uint64, uint64) {
	switches := make([]object.ID, 0, len(bySwitch))
	for sw := range bySwitch {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	perSwitch := make(map[object.ID]uint64, len(switches))
	h := hasher(hashSeed)
	for _, sw := range switches {
		fp := Fingerprint(bySwitch[sw])
		perSwitch[sw] = fp
		h.word(uint64(sw))
		h.word(fp)
	}
	return perSwitch, h.sum()
}
