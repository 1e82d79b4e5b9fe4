// Package rule defines the low-level access-control rule representation
// shared by the policy compiler (L-type logical rules) and the TCAM
// simulator (T-type deployed rules).
//
// A rule matches traffic on (VRF, source EPG, destination EPG, IP protocol,
// destination port range) — the same 5 fields the paper's Figure 2 shows for
// Nexus TCAM ACL entries — and carries an Allow/Deny action. Each rule also
// records its provenance: the set of policy objects whose (mis)deployment
// it depends on. Provenance drives the risk-model augmentation step.
package rule

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"scout/internal/object"
)

// Action is the disposition a rule applies to matching traffic. It is 32
// bits wide so that a Key has no padding (see Key).
type Action int32

// Rule actions. Values start at 1 so the zero Action is invalid.
const (
	Allow Action = iota + 1
	Deny
)

// String returns "allow" or "deny".
func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	default:
		return "action(" + strconv.Itoa(int(a)) + ")"
	}
}

// Protocol is an IP protocol number. ProtoAny matches every protocol.
type Protocol uint8

// Common protocol numbers.
const (
	ProtoAny  Protocol = 0
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String returns a symbolic protocol name where one exists.
func (p Protocol) String() string {
	switch p {
	case ProtoAny:
		return "any"
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return strconv.Itoa(int(p))
	}
}

// PortMax is the maximum value of a transport port.
const PortMax = 65535

// Match is the matching half of a rule: the traffic slice it applies to.
// EPG and VRF identifiers of 0 combined with Wildcard* flags express the
// catch-all fields of a default-deny rule. Fields are declared widest
// first (4-4-4-2-2-1-1-1-1) so the struct is 20 bytes with no padding.
type Match struct {
	VRF         object.ID `json:"vrf"`
	SrcEPG      object.ID `json:"srcEPG"`
	DstEPG      object.ID `json:"dstEPG"`
	PortLo      uint16    `json:"portLo"`
	PortHi      uint16    `json:"portHi"`
	Proto       Protocol  `json:"proto"`
	WildcardVRF bool      `json:"wildcardVRF,omitempty"`
	WildcardSrc bool      `json:"wildcardSrc,omitempty"`
	WildcardDst bool      `json:"wildcardDst,omitempty"`
}

// AnyPort reports whether the match covers the full port range.
func (m Match) AnyPort() bool { return m.PortLo == 0 && m.PortHi == PortMax }

// Covers reports whether m matches the concrete packet 5-tuple
// (vrf, src, dst, proto, port).
func (m Match) Covers(vrf, src, dst object.ID, proto Protocol, port uint16) bool {
	if !m.WildcardVRF && m.VRF != vrf {
		return false
	}
	if !m.WildcardSrc && m.SrcEPG != src {
		return false
	}
	if !m.WildcardDst && m.DstEPG != dst {
		return false
	}
	if m.Proto != ProtoAny && m.Proto != proto {
		return false
	}
	return m.PortLo <= port && port <= m.PortHi
}

// String renders the match like "vrf=101 src=3 dst=4 tcp 80-80".
func (m Match) String() string {
	var b strings.Builder
	field := func(name string, wild bool, id object.ID) {
		b.WriteString(name)
		b.WriteByte('=')
		if wild {
			b.WriteByte('*')
		} else {
			b.WriteString(strconv.FormatUint(uint64(id), 10))
		}
		b.WriteByte(' ')
	}
	field("vrf", m.WildcardVRF, m.VRF)
	field("src", m.WildcardSrc, m.SrcEPG)
	field("dst", m.WildcardDst, m.DstEPG)
	b.WriteString(m.Proto.String())
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(int(m.PortLo)))
	b.WriteByte('-')
	b.WriteString(strconv.Itoa(int(m.PortHi)))
	return b.String()
}

// Rule is a single prioritized access-control entry.
//
// A rule is a value, and every layer hands rules on by assignment: the
// compiler into a deployment's lists, those into a TCAM, a TCAM into its
// snapshots, a check or a probe into its report. What copies of a rule
// share is the Provenance slice, which nobody writes once the rule is
// constructed; the compiler itself shares one slice across every rule of a
// (binding, filter).
type Rule struct {
	Match    Match  `json:"match"`
	Action   Action `json:"action"`
	Priority int    `json:"priority"`

	// Provenance lists the policy objects this rule was derived from:
	// the VRF, both EPGs, the contract, and the filter. A fault in any of
	// them can make this rule go missing, so they are this rule's shared
	// risks. Empty for rules collected from hardware (T-type).
	Provenance []object.Ref `json:"provenance,omitempty"`
}

// Key is a canonical, comparable identity for a rule's match+action,
// ignoring priority and provenance. Two rules with equal Keys enforce the
// same behaviour, which is what L-T equivalence compares. A Key is one
// 24-byte run of memory with no padding, so the runtime hashes and compares
// it in one pass; TestKeyLayout pins that.
type Key struct {
	Match  Match
	Action Action
}

// Key returns the rule's canonical identity.
func (r Rule) Key() Key { return Key{Match: r.Match, Action: r.Action} }

// String renders the rule for logs and test failures.
func (r Rule) String() string {
	return fmt.Sprintf("[p%d] %s -> %s", r.Priority, r.Match.String(), r.Action)
}

// HasProvenance reports whether ref appears in the rule's provenance.
func (r Rule) HasProvenance(ref object.Ref) bool {
	for _, p := range r.Provenance {
		if p == ref {
			return true
		}
	}
	return false
}

// Equal reports whether two rules are identical in every field that can
// influence an equivalence check or a report: match, action, priority, and
// provenance (elementwise, order-sensitive).
func (r Rule) Equal(o Rule) bool {
	if r.Match != o.Match || r.Action != o.Action || r.Priority != o.Priority {
		return false
	}
	if len(r.Provenance) != len(o.Provenance) {
		return false
	}
	for i, ref := range r.Provenance {
		if ref != o.Provenance[i] {
			return false
		}
	}
	return true
}

// SameSlice reports whether a and b are one slice: equal length and the
// same backing array. Rule lists handed between layers are read-only
// (TCAM snapshots, collected epochs), so one slice seen twice is
// unchanged content, established without reading a rule.
func SameSlice(a, b []Rule) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// SlicesEqual reports whether two rule lists are elementwise Equal in the
// same order. Rule lists are priority-ordered, so order sensitivity is the
// same sensitivity the equivalence checker has. One slice compared with
// itself (SameSlice) is equal at once.
func SlicesEqual(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	if SameSlice(a, b) {
		return true
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// DefaultDeny returns the catch-all whitelist tail rule ("*,*,*,* -> deny")
// with the lowest priority.
func DefaultDeny() Rule {
	return Rule{
		Match: Match{
			WildcardVRF: true,
			WildcardSrc: true,
			WildcardDst: true,
			Proto:       ProtoAny,
			PortLo:      0,
			PortHi:      PortMax,
		},
		Action:   Deny,
		Priority: 0,
	}
}

// IsDefaultDeny reports whether r is a catch-all deny rule.
func (r Rule) IsDefaultDeny() bool {
	m := r.Match
	return r.Action == Deny && m.WildcardVRF && m.WildcardSrc && m.WildcardDst &&
		m.Proto == ProtoAny && m.PortLo == 0 && m.PortHi == PortMax
}

// Sort orders rules deterministically: descending priority first (match
// order), then by match fields. It sorts in place. The sort is unstable, so
// which of several rules with one Key and one priority comes first is the
// algorithm's choice; it is the pattern-defeating quicksort sort.Slice also
// runs, making the same comparisons, so that choice is the one sort.Slice
// makes when it asks whether Compare(a, b) < 0.
func Sort(rules []Rule) {
	slices.SortFunc(rules, Compare)
}

// Compare is a deterministic ordering on rules: descending priority, then
// every match field (including the wildcard flags), then action. It is
// total up to Key equality — two rules it cannot separate share a Key,
// which the compiler keeps once — so ties cannot occur within one switch's
// deduped rule list; callers needing a tiebreak for sorted outputs
// derived from such lists (e.g. a probe's missing rules) can rely on that.
func Compare(a, b Rule) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	am, bm := &a.Match, &b.Match
	if am.VRF != bm.VRF {
		return cmp.Compare(am.VRF, bm.VRF)
	}
	if am.SrcEPG != bm.SrcEPG {
		return cmp.Compare(am.SrcEPG, bm.SrcEPG)
	}
	if am.DstEPG != bm.DstEPG {
		return cmp.Compare(am.DstEPG, bm.DstEPG)
	}
	if am.Proto != bm.Proto {
		return cmp.Compare(am.Proto, bm.Proto)
	}
	if am.PortLo != bm.PortLo {
		return cmp.Compare(am.PortLo, bm.PortLo)
	}
	if am.PortHi != bm.PortHi {
		return cmp.Compare(am.PortHi, bm.PortHi)
	}
	if am.WildcardVRF != bm.WildcardVRF {
		return compareBool(am.WildcardVRF, bm.WildcardVRF)
	}
	if am.WildcardSrc != bm.WildcardSrc {
		return compareBool(am.WildcardSrc, bm.WildcardSrc)
	}
	if am.WildcardDst != bm.WildcardDst {
		return compareBool(am.WildcardDst, bm.WildcardDst)
	}
	return cmp.Compare(a.Action, b.Action)
}

// compareBool orders false before true.
func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

// KeySet builds a set of rule Keys from the given rules.
func KeySet(rules []Rule) map[Key]struct{} {
	s := make(map[Key]struct{}, len(rules))
	for _, r := range rules {
		s[r.Key()] = struct{}{}
	}
	return s
}
