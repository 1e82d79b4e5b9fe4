package rule

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"scout/internal/object"
)

func TestRuleEqual(t *testing.T) {
	base := Rule{
		Match:      Match{VRF: 101, SrcEPG: 1, DstEPG: 2, Proto: ProtoTCP, PortLo: 80, PortHi: 80},
		Action:     Allow,
		Priority:   10,
		Provenance: []object.Ref{object.Filter(5000), object.Contract(3000)},
	}
	// twin shares no storage with base, so Equal must compare contents.
	twin := base
	twin.Provenance = []object.Ref{object.Filter(5000), object.Contract(3000)}
	if !base.Equal(twin) {
		t.Fatal("a field-for-field twin must be Equal")
	}
	variants := []Rule{}
	v := base
	v.Match.PortHi = 81
	variants = append(variants, v)
	v = base
	v.Action = Deny
	variants = append(variants, v)
	v = base
	v.Priority = 11
	variants = append(variants, v)
	v = base
	v.Provenance = v.Provenance[:1]
	variants = append(variants, v)
	v = base
	v.Provenance = []object.Ref{object.Contract(3000), object.Filter(5000)}
	variants = append(variants, v)
	for i, v := range variants {
		if base.Equal(v) {
			t.Errorf("variant %d must not be Equal", i)
		}
	}

	a := []Rule{base, DefaultDeny()}
	if !SlicesEqual(a, []Rule{twin, DefaultDeny()}) {
		t.Error("equal slices reported unequal")
	}
	if SlicesEqual(a, a[:1]) {
		t.Error("length mismatch reported equal")
	}
	if SlicesEqual(a, []Rule{DefaultDeny(), base}) {
		t.Error("order must matter")
	}
	if !SlicesEqual(nil, []Rule{}) {
		t.Error("nil and empty slices must be equal")
	}

	// One slice seen twice is equal without reading it; a copy, a shorter
	// prefix or a shifted window of the same array is not the same slice.
	if !SameSlice(a, a) || !SlicesEqual(a, a) || !SameSlice(nil, []Rule{}) {
		t.Error("a slice must be the same slice as itself")
	}
	if SameSlice(a, []Rule{base, DefaultDeny()}) || SameSlice(a, a[:1]) || SameSlice(a[:1], a[1:]) {
		t.Error("SameSlice must compare backing array and length, not content")
	}
}

func TestActionString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Error("action names wrong")
	}
	if !strings.Contains(Action(9).String(), "9") {
		t.Error("unknown action should include numeric value")
	}
}

func TestProtocolString(t *testing.T) {
	tests := []struct {
		p    Protocol
		want string
	}{
		{ProtoAny, "any"}, {ProtoICMP, "icmp"}, {ProtoTCP, "tcp"}, {ProtoUDP, "udp"}, {Protocol(89), "89"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Protocol(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestDefaultDenyIsDefaultDeny(t *testing.T) {
	if !DefaultDeny().IsDefaultDeny() {
		t.Error("DefaultDeny() must satisfy IsDefaultDeny")
	}
	r := Rule{Match: Match{VRF: 1, Proto: ProtoAny, PortHi: PortMax}, Action: Deny}
	if r.IsDefaultDeny() {
		t.Error("non-wildcard deny is not a default deny")
	}
	allowAll := DefaultDeny()
	allowAll.Action = Allow
	if allowAll.IsDefaultDeny() {
		t.Error("allow-all is not a default deny")
	}
}

func TestRuleKeyIgnoresPriorityAndProvenance(t *testing.T) {
	a := Rule{Match: Match{VRF: 1, SrcEPG: 2, DstEPG: 3, Proto: ProtoTCP, PortLo: 80, PortHi: 80}, Action: Allow, Priority: 10,
		Provenance: []object.Ref{object.VRF(1)}}
	b := a
	b.Priority = 99
	b.Provenance = nil
	if a.Key() != b.Key() {
		t.Error("Key must ignore priority and provenance")
	}
}

func TestHasProvenance(t *testing.T) {
	r := Rule{Provenance: []object.Ref{object.VRF(1), object.Filter(5)}}
	if !r.HasProvenance(object.Filter(5)) {
		t.Error("should find filter:5")
	}
	if r.HasProvenance(object.Filter(6)) {
		t.Error("should not find filter:6")
	}
}

func TestSortOrdersByPriorityThenFields(t *testing.T) {
	rules := []Rule{
		{Match: Match{VRF: 2}, Action: Allow, Priority: 10},
		{Match: Match{VRF: 1}, Action: Allow, Priority: 10},
		DefaultDeny(), // priority 0 → last
		{Match: Match{VRF: 1, SrcEPG: 5}, Action: Allow, Priority: 20},
	}
	Sort(rules)
	if rules[0].Priority != 20 {
		t.Errorf("highest priority first, got %v", rules[0])
	}
	if !rules[len(rules)-1].IsDefaultDeny() {
		t.Errorf("default deny last, got %v", rules[len(rules)-1])
	}
	if rules[1].Match.VRF != 1 || rules[2].Match.VRF != 2 {
		t.Error("ties broken by match fields ascending")
	}
}

func TestSortDeterministicQuick(t *testing.T) {
	gen := func(seed int64) []Rule {
		rng := rand.New(rand.NewSource(seed))
		rules := make([]Rule, 30)
		for i := range rules {
			rules[i] = Rule{
				Match: Match{
					VRF:    object.ID(rng.Intn(4)),
					SrcEPG: object.ID(rng.Intn(4)),
					DstEPG: object.ID(rng.Intn(4)),
					Proto:  Protocol(rng.Intn(3) * 6),
					PortLo: uint16(rng.Intn(100)),
					PortHi: uint16(100 + rng.Intn(100)),
				},
				Action:   Action(1 + rng.Intn(2)),
				Priority: rng.Intn(3) * 10,
			}
		}
		return rules
	}
	f := func(seed int64) bool {
		a := gen(seed)
		b := gen(seed)
		// Shuffle b differently, sort both: results must be identical.
		rng := rand.New(rand.NewSource(seed + 1))
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		Sort(a)
		Sort(b)
		for i := range a {
			if a[i].Key() != b[i].Key() || a[i].Priority != b[i].Priority {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refLess is the ordering as it was written before Compare existed, kept
// as the oracle for it: descending priority, the match fields in their
// historical order (protocol before ports), wildcards after concrete
// values, then action.
func refLess(a, b Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	am, bm := a.Match, b.Match
	if am.VRF != bm.VRF {
		return am.VRF < bm.VRF
	}
	if am.SrcEPG != bm.SrcEPG {
		return am.SrcEPG < bm.SrcEPG
	}
	if am.DstEPG != bm.DstEPG {
		return am.DstEPG < bm.DstEPG
	}
	if am.Proto != bm.Proto {
		return am.Proto < bm.Proto
	}
	if am.PortLo != bm.PortLo {
		return am.PortLo < bm.PortLo
	}
	if am.PortHi != bm.PortHi {
		return am.PortHi < bm.PortHi
	}
	if am.WildcardVRF != bm.WildcardVRF {
		return bm.WildcardVRF
	}
	if am.WildcardSrc != bm.WildcardSrc {
		return bm.WildcardSrc
	}
	if am.WildcardDst != bm.WildcardDst {
		return bm.WildcardDst
	}
	return a.Action < b.Action
}

// TestSortPermutesLikeReflectiveSort: Compare orders any two rules as
// refLess does, and Sort leaves a list — long enough to leave insertion
// sort, full of rules that tie — in exactly the sequence sort.Slice with
// refLess leaves it in. Ties are told apart by provenance, so this pins
// which of several same-key rules ends up first: compile keeps that one.
func TestSortPermutesLikeReflectiveSort(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := make([]Rule, 10+rng.Intn(3000))
		for i := range rules {
			rules[i] = Rule{
				Match: Match{
					VRF:         object.ID(rng.Intn(2)),
					SrcEPG:      object.ID(rng.Intn(3)),
					DstEPG:      object.ID(rng.Intn(3)),
					Proto:       Protocol(rng.Intn(2) * 6),
					PortLo:      uint16(rng.Intn(3)),
					PortHi:      uint16(3 + rng.Intn(2)),
					WildcardVRF: rng.Intn(8) == 0,
					WildcardSrc: rng.Intn(8) == 0,
					WildcardDst: rng.Intn(8) == 0,
				},
				Action:     Action(1 + rng.Intn(2)),
				Priority:   rng.Intn(2) * 10,
				Provenance: []object.Ref{object.Filter(object.ID(i))},
			}
		}
		for i := 1; i < len(rules); i++ {
			a, b := rules[i-1], rules[i]
			if got, want := Compare(a, b) < 0, refLess(a, b); got != want {
				t.Fatalf("seed %d: Compare(%v, %v) < 0 is %v, the oracle says %v", seed, a, b, got, want)
			}
			if Compare(a, b) != -Compare(b, a) || (Compare(a, b) == 0) != (a.Key() == b.Key() && a.Priority == b.Priority) {
				t.Fatalf("seed %d: Compare is not antisymmetric, or ties rules that differ: %v, %v", seed, a, b)
			}
		}
		want := append([]Rule(nil), rules...)
		sort.Slice(want, func(i, j int) bool { return refLess(want[i], want[j]) })
		Sort(rules)
		if !reflect.DeepEqual(rules, want) {
			t.Fatalf("seed %d: Sort and the reflective sort permute %d rules differently", seed, len(rules))
		}
	}
}

func TestKeySet(t *testing.T) {
	rules := []Rule{
		{Match: Match{VRF: 1}, Action: Allow},
		{Match: Match{VRF: 1}, Action: Allow}, // dup
		{Match: Match{VRF: 2}, Action: Deny},
	}
	s := KeySet(rules)
	if len(s) != 2 {
		t.Errorf("KeySet len = %d, want 2", len(s))
	}
}

func TestRuleStringHumanReadable(t *testing.T) {
	r := Rule{Match: Match{VRF: 101, SrcEPG: 1, DstEPG: 2, Proto: ProtoTCP, PortLo: 80, PortHi: 80}, Action: Allow, Priority: 10}
	s := r.String()
	for _, want := range []string{"vrf=101", "src=1", "dst=2", "tcp", "80-80", "allow"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	dd := DefaultDeny().String()
	if !strings.Contains(dd, "vrf=*") || !strings.Contains(dd, "deny") {
		t.Errorf("default deny String() = %q", dd)
	}
}

// TestKeyLayout pins Key at one 24-byte run with no padding — its size is
// the sum of its fields' — so the runtime hashes and compares it as plain
// memory in one call. A new field, or a reordering that brings padding
// back, fails here instead of slowing every Key map.
func TestKeyLayout(t *testing.T) {
	var fieldBytes func(t reflect.Type) uintptr
	fieldBytes = func(t reflect.Type) uintptr {
		if t.Kind() != reflect.Struct {
			return t.Size()
		}
		sum := uintptr(0)
		for i := 0; i < t.NumField(); i++ {
			sum += fieldBytes(t.Field(i).Type)
		}
		return sum
	}
	if size, fields := unsafe.Sizeof(Key{}), fieldBytes(reflect.TypeOf(Key{})); size != 24 || fields != 24 {
		t.Errorf("Key is %d bytes holding %d bytes of fields, want 24 and 24", size, fields)
	}
}
