// Package object defines typed references to network policy objects.
//
// Policy objects (VRFs, EPGs, contracts, filters) and physical objects
// (switches) are the "shared risks" of the paper's risk models: a single
// mis-deployed object can break every EPG pair that depends on it. A Ref
// uniquely names one such object and is used as the risk identity across
// the risk-model, localization, and correlation packages.
package object

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the kinds of policy and physical objects that can act as
// shared risks in a risk model. It is 32 bits wide so that a Ref is eight
// bytes with no padding (see Ref).
type Kind int32

// Object kinds. Values start at 1 so the zero Kind is invalid.
const (
	KindVRF Kind = iota + 1
	KindEPG
	KindContract
	KindFilter
	KindSwitch
)

// kindNames maps kinds to their canonical short names.
var kindNames = map[Kind]string{
	KindVRF:      "vrf",
	KindEPG:      "epg",
	KindContract: "contract",
	KindFilter:   "filter",
	KindSwitch:   "switch",
}

// String returns the canonical lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// ParseKind converts a canonical kind name back into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown object kind %q", s)
}

// ID is the numeric identity of an object within its kind namespace.
type ID uint32

// Ref uniquely identifies a policy or physical object. Refs are valid map
// keys and are the risk identity used throughout the system. The struct is
// eight bytes without padding, so the runtime hashes and compares it as one
// machine word; TestRefLayout pins that.
type Ref struct {
	Kind Kind `json:"kind"`
	ID   ID   `json:"id"`
}

// Convenience constructors for each kind.

// VRF returns a Ref naming a VRF object.
func VRF(id ID) Ref { return Ref{Kind: KindVRF, ID: id} }

// EPG returns a Ref naming an endpoint-group object.
func EPG(id ID) Ref { return Ref{Kind: KindEPG, ID: id} }

// Contract returns a Ref naming a contract object.
func Contract(id ID) Ref { return Ref{Kind: KindContract, ID: id} }

// Filter returns a Ref naming a filter object.
func Filter(id ID) Ref { return Ref{Kind: KindFilter, ID: id} }

// Switch returns a Ref naming a physical switch.
func Switch(id ID) Ref { return Ref{Kind: KindSwitch, ID: id} }

// String renders the Ref as "kind:id", e.g. "vrf:101".
func (r Ref) String() string {
	return r.Kind.String() + ":" + strconv.FormatUint(uint64(r.ID), 10)
}

// ParseRef parses a "kind:id" string produced by Ref.String.
func ParseRef(s string) (Ref, error) {
	kindStr, idStr, ok := strings.Cut(s, ":")
	if !ok {
		return Ref{}, fmt.Errorf("malformed object ref %q: want kind:id", s)
	}
	kind, err := ParseKind(kindStr)
	if err != nil {
		return Ref{}, fmt.Errorf("malformed object ref %q: %w", s, err)
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		return Ref{}, fmt.Errorf("malformed object ref %q: bad id: %w", s, err)
	}
	return Ref{Kind: kind, ID: ID(id)}, nil
}

// Less imposes a total order on Refs (by kind, then ID), used to make
// algorithm outputs deterministic.
func (r Ref) Less(other Ref) bool {
	if r.Kind != other.Kind {
		return r.Kind < other.Kind
	}
	return r.ID < other.ID
}

// Compare returns -1, 0, or +1 comparing r with other in the Less order.
func (r Ref) Compare(other Ref) int {
	switch {
	case r.Less(other):
		return -1
	case other.Less(r):
		return 1
	default:
		return 0
	}
}

// SortRefs sorts refs in place in the canonical Less order.
func SortRefs(refs []Ref) {
	slices.SortFunc(refs, Ref.Compare)
}

// Set is a set of object Refs.
type Set map[Ref]struct{}

// NewSet builds a Set from the given refs.
func NewSet(refs ...Ref) Set {
	s := make(Set, len(refs))
	for _, r := range refs {
		s[r] = struct{}{}
	}
	return s
}

// Add inserts r into the set.
func (s Set) Add(r Ref) { s[r] = struct{}{} }

// Has reports whether r is in the set.
func (s Set) Has(r Ref) bool {
	_, ok := s[r]
	return ok
}

// Len returns the number of refs in the set.
func (s Set) Len() int { return len(s) }

// Sorted returns the set contents as a sorted slice.
func (s Set) Sorted() []Ref {
	out := make([]Ref, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	SortRefs(out)
	return out
}
