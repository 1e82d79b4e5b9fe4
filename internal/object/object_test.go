package object

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindVRF, "vrf"},
		{KindEPG, "epg"},
		{KindContract, "contract"},
		{KindFilter, "filter"},
		{KindSwitch, "switch"},
		{Kind(0), "kind(0)"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

// TestKindValid: exactly the defined kinds have a name ParseKind reads
// back.
func TestKindValid(t *testing.T) {
	for _, k := range []Kind{KindVRF, KindEPG, KindContract, KindFilter, KindSwitch} {
		if _, err := ParseKind(k.String()); err != nil {
			t.Errorf("%v should be valid: %v", k, err)
		}
	}
	for _, k := range []Kind{0, 6, -1, 100} {
		if got, err := ParseKind(k.String()); err == nil {
			t.Errorf("Kind(%d) should be invalid, parsed as %v", int(k), got)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindVRF, KindEPG, KindContract, KindFilter, KindSwitch} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind should reject unknown kinds")
	}
}

func TestRefStringParseRoundTrip(t *testing.T) {
	refs := []Ref{
		VRF(101), EPG(0), Contract(42), Filter(65535), Switch(4294967295),
	}
	for _, r := range refs {
		parsed, err := ParseRef(r.String())
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", r.String(), err)
		}
		if parsed != r {
			t.Errorf("round trip %v -> %q -> %v", r, r.String(), parsed)
		}
	}
}

func TestParseRefErrors(t *testing.T) {
	for _, s := range []string{"", "vrf", "vrf:", "vrf:abc", "bogus:1", ":5", "vrf:-1", "vrf:99999999999"} {
		if _, err := ParseRef(s); err == nil {
			t.Errorf("ParseRef(%q) should fail", s)
		}
	}
}

func TestRefStringParseRoundTripQuick(t *testing.T) {
	kinds := []Kind{KindVRF, KindEPG, KindContract, KindFilter, KindSwitch}
	f := func(kindIdx uint8, id uint32) bool {
		r := Ref{Kind: kinds[int(kindIdx)%len(kinds)], ID: ID(id)}
		parsed, err := ParseRef(r.String())
		return err == nil && parsed == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefOrdering(t *testing.T) {
	a, b, c := VRF(1), VRF(2), EPG(1)
	if !a.Less(b) || b.Less(a) {
		t.Error("vrf:1 < vrf:2")
	}
	if !a.Less(c) {
		t.Error("kind dominates: vrf < epg")
	}
	if a.Compare(a) != 0 || a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("Compare inconsistent with Less")
	}
}

func TestSortRefsIsTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := []Kind{KindVRF, KindEPG, KindContract, KindFilter, KindSwitch}
		refs := make([]Ref, 50)
		for i := range refs {
			refs[i] = Ref{Kind: kinds[rng.Intn(len(kinds))], ID: ID(rng.Intn(100))}
		}
		SortRefs(refs)
		for i := 1; i < len(refs); i++ {
			if refs[i].Less(refs[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(VRF(1), EPG(2))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(VRF(1)) || !s.Has(EPG(2)) || s.Has(EPG(3)) {
		t.Error("Has answers wrong")
	}
	s.Add(EPG(3))
	s.Add(EPG(3)) // idempotent
	if s.Len() != 3 {
		t.Errorf("Len after adds = %d, want 3", s.Len())
	}
}

func TestSetSortedDeterministic(t *testing.T) {
	s := NewSet(Switch(9), VRF(3), Filter(1), EPG(7), Contract(5), VRF(1))
	want := []Ref{VRF(1), VRF(3), EPG(7), Contract(5), Filter(1), Switch(9)}
	if got := s.Sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sorted() = %v, want %v", got, want)
	}
}

// TestRefLayout pins Ref at eight bytes with no padding — its size is the
// sum of its fields' — so the runtime hashes and compares it as one word
// and a map keyed by it takes the 64-bit fast path. A new or widened field
// fails here instead of slowing every Ref map.
func TestRefLayout(t *testing.T) {
	var r Ref
	if size, fields := unsafe.Sizeof(r), unsafe.Sizeof(r.Kind)+unsafe.Sizeof(r.ID); size != 8 || fields != 8 {
		t.Errorf("Ref is %d bytes holding %d bytes of fields, want 8 and 8", size, fields)
	}
	if n := reflect.TypeOf(r).NumField(); n != 2 {
		t.Errorf("Ref has %d fields; count the new one above", n)
	}
}
