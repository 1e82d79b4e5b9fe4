package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scout/internal/bdd"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// testRules builds a deterministic pseudo-random rule list whose IDs all
// fit the BDD encoding's bit widths.
func testRules(rng *rand.Rand, n int) []rule.Rule {
	rules := make([]rule.Rule, n)
	for i := range rules {
		m := rule.Match{
			VRF:    object.ID(rng.Intn(1 << 10)),
			SrcEPG: object.ID(rng.Intn(1 << 12)),
			DstEPG: object.ID(rng.Intn(1 << 12)),
			Proto:  rule.Protocol(rng.Intn(256)),
		}
		lo := uint16(rng.Intn(rule.PortMax))
		m.PortLo, m.PortHi = lo, lo+uint16(rng.Intn(int(rule.PortMax)-int(lo)+1))
		switch rng.Intn(4) {
		case 0:
			m.WildcardVRF = true
		case 1:
			m.WildcardSrc = true
		case 2:
			m.WildcardDst = true
		}
		r := rule.Rule{Match: m, Action: rule.Allow, Priority: rng.Intn(100) - 50}
		if rng.Intn(2) == 0 {
			r.Action = rule.Deny
		}
		if rng.Intn(3) == 0 {
			r.Provenance = []object.Ref{
				object.Filter(object.ID(rng.Intn(1000))),
				object.Contract(object.ID(rng.Intn(1000))),
			}
		}
		rules[i] = r
	}
	return rules
}

func testBase(t testing.TB, seed int64) (*equiv.Base, [][]rule.Rule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	listA := testRules(rng, 40)
	listB := testRules(rng, 25)
	base := equiv.NewBaseWith(nil, listA, listB)
	if base.Size() <= 2 || base.NumSemantics() != 2 {
		t.Fatalf("unexpected test base: %d nodes, %d semantics", base.Size(), base.NumSemantics())
	}
	return base, [][]rule.Rule{listA, listB}
}

// reframe stamps a file image with a codec version and recomputes its
// trailing checksum, so only the header tells it from a current file.
func reframe(img []byte, version uint32) []byte {
	out := append([]byte(nil), img[:len(img)-8]...)
	binary.LittleEndian.PutUint32(out[4:], version)
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// v1BaseImage frames base the way codec version 1 did: a match-memo
// section (here one entry bound to the first frozen node) between the
// snapshot and the semantics memo, under a version-1 header.
func v1BaseImage(depFP uint64, b *equiv.Base) []byte {
	var snap, memo encoder
	encodeSnapshot(&snap, b.Snapshot())
	memo.uvarint(1)
	for _, id := range []uint32{1, 2, 3} { // VRF, source EPG, destination EPG
		memo.u32(id)
	}
	memo.u8(0) // any protocol
	memo.uvarint(80)
	memo.uvarint(80)
	memo.u8(0)      // no wildcards
	memo.uvarint(2) // the node the match is bound to
	v2 := encodeBase(depFP, b)
	payload := v2[16 : len(v2)-8]
	v1 := append(append(append([]byte(nil), payload[:len(snap.buf)]...), memo.buf...), payload[len(snap.buf):]...)
	return reframe(seal(baseMagic, depFP, v1), 1)
}

// snapshotsEqual compares two frozen snapshots node for node.
func snapshotsEqual(t *testing.T, a, b *bdd.Snapshot) {
	t.Helper()
	if a.NumVars() != b.NumVars() || a.Size() != b.Size() {
		t.Fatalf("snapshot shape: %d vars/%d nodes vs %d vars/%d nodes",
			a.NumVars(), a.Size(), b.NumVars(), b.Size())
	}
	for i := 2; i < a.Size(); i++ {
		al, alo, ahi := a.NodeAt(i)
		bl, blo, bhi := b.NodeAt(i)
		if al != bl || alo != blo || ahi != bhi {
			t.Fatalf("node %d: (%d,%d,%d) vs (%d,%d,%d)", i, al, alo, ahi, bl, blo, bhi)
		}
	}
}

// TestBaseCodecRoundTrip pins the tentpole's identity property: a
// decoded base is node-for-node the encoder's base — same snapshot, same
// memo bindings, same Eval and SatCount behaviour against a live
// manager — so a warm restart replays the exact BDD state, not an
// approximation of it.
func TestBaseCodecRoundTrip(t *testing.T) {
	base, _ := testBase(t, 1)
	const depFP = 0xfeedface12345678
	data := encodeBase(depFP, base)
	got, err := decodeBase(data, depFP)
	if err != nil {
		t.Fatalf("decodeBase: %v", err)
	}

	snapshotsEqual(t, base.Snapshot(), got.Snapshot())

	// Memo bindings: identical node IDs for every semantics fingerprint.
	wantSem := make(map[uint64]bdd.Node)
	base.ForEachSemantics(func(fp uint64, _ []rule.Rule, root bdd.Node) { wantSem[fp] = root })
	gotSem := make(map[uint64]bdd.Node)
	roots := make([]bdd.Node, 0, 2)
	got.ForEachSemantics(func(fp uint64, rules []rule.Rule, root bdd.Node) {
		gotSem[fp] = root
		roots = append(roots, root)
		if fp != equiv.SemanticsFingerprint(rules) {
			t.Fatalf("semantics fp %#x does not match decoded rules", fp)
		}
	})
	if !reflect.DeepEqual(wantSem, gotSem) {
		t.Fatalf("semantics memo mismatch: %v vs %v", wantSem, gotSem)
	}

	// Behavioural identity against live managers: Eval on random
	// assignments and exact SatCount for every frozen root.
	wantM := bdd.NewManagerFrom(base.Snapshot())
	gotM := bdd.NewManagerFrom(got.Snapshot())
	rng := rand.New(rand.NewSource(2))
	assignment := make([]bool, equiv.NumVars)
	for _, root := range roots {
		if w, g := oracle.SatCount(wantM, equiv.NumVars, root), oracle.SatCount(gotM, equiv.NumVars, root); w != g {
			t.Fatalf("SatCount(%d): %v vs %v", root, w, g)
		}
		for trial := 0; trial < 64; trial++ {
			for i := range assignment {
				assignment[i] = rng.Intn(2) == 1
			}
			if w, g := oracle.Eval(wantM, root, assignment), oracle.Eval(gotM, root, assignment); w != g {
				t.Fatalf("Eval(%d) diverged on trial %d: %v vs %v", root, trial, w, g)
			}
		}
	}

	// Determinism: re-encoding either side yields the same bytes.
	if again := encodeBase(depFP, got); !reflect.DeepEqual(data, again) {
		t.Fatal("re-encoding the decoded base changed the bytes")
	}
}

// TestBaseCodecRejectsDamage walks the rejection surface: every
// truncation and every single-bit flip must fail verification (checksum
// or structural validation) — a damaged file is never loaded partially.
func TestBaseCodecRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	list := testRules(rng, 6)
	base := equiv.NewBaseWith(nil, list)
	const depFP = 0x0123456789abcdef
	data := encodeBase(depFP, base)

	for _, n := range []int{0, 1, frameOverhead - 1, frameOverhead, len(data) / 2, len(data) - 1} {
		if _, err := decodeBase(data[:n], depFP); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 1 << (i % 8)
		if _, err := decodeBase(corrupt, depFP); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	if _, err := decodeBase(data, depFP+1); err == nil {
		t.Fatal("wrong content key accepted")
	}
}

// TestCodecRejectsVersionMismatch pins that a well-formed file from
// another codec revision is rejected on its header — distinctly from
// corruption — even though its checksum is valid.
func TestCodecRejectsVersionMismatch(t *testing.T) {
	payload := []byte{1, 2, 3}
	for _, v := range []uint32{codecVersion - 1, codecVersion + 1} {
		forged := reframe(seal(baseMagic, 42, payload), v)
		if _, err := open(forged, baseMagic, 42); err == nil {
			t.Fatalf("version-%d file accepted", v)
		} else if !strings.Contains(err.Error(), "version") {
			t.Fatalf("want a version error, got %q", err)
		}
	}
	// A genuine version-1 base — match memo and all — is a version miss,
	// never handed to the version-2 payload decoder.
	base, _ := testBase(t, 4)
	if _, err := decodeBase(v1BaseImage(42, base), 42); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 base image: %v, want the version error", err)
	}
	// Wrong magic is rejected before anything else.
	if _, err := open(seal(verdictMagic, 42, payload), baseMagic, 42); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// FuzzDecodeVerdicts: whatever the bytes, the verdict decoder returns — it
// never panics, never sizes an allocation from a length it has not held
// against the bytes left, never accepts an image under a fingerprint it
// was not filed under — and an image it accepts is the one encoding of
// what it decoded. As in FuzzDecodeBase, each input is also tried with its
// checksum recomputed so mutated payloads reach the verdict and rule
// decoders.
func FuzzDecodeVerdicts(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	const depFP = 0x5c07
	// A check-mode file (missing and extra rules, a clean switch) and a
	// probe-mode one (violations only); the two share the format.
	check := encodeVerdicts(depFP, []Verdict{
		{Switch: 101, LogicalFP: 1, TCAMFP: 2, Report: &equiv.Report{Equivalent: true}},
		{Switch: 102, LogicalFP: 3, TCAMFP: 4, Report: &equiv.Report{MissingRules: testRules(rng, 6), ExtraRules: []rule.Rule{}}},
		{Switch: 103, LogicalFP: 5, TCAMFP: 6, Report: &equiv.Report{MissingRules: testRules(rng, 2), ExtraRules: testRules(rng, 3)}},
	})
	probe := encodeVerdicts(depFP, []Verdict{
		{Switch: 101, LogicalFP: 1, TCAMFP: 0, Report: &equiv.Report{Equivalent: true}},
		{Switch: 102, LogicalFP: 3, TCAMFP: 0, Report: &equiv.Report{MissingRules: testRules(rng, 4)}},
	})
	f.Add(check)
	f.Add(probe)
	for _, n := range []int{0, frameOverhead - 1, frameOverhead, len(check) / 3, len(check) - 9, len(check) - 1} {
		f.Add(check[:n])
	}
	flipped := append([]byte(nil), check...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(encodeVerdicts(depFP+1, nil))
	// Two clean verdicts out of switch order: not what the encoder writes.
	var unsorted encoder
	unsorted.uvarint(2)
	for _, sw := range []uint64{9, 3} {
		unsorted.uvarint(sw)
		unsorted.u64(1)
		unsorted.u64(2)
		unsorted.u8(1)
		unsorted.uvarint(0)
		unsorted.uvarint(0)
	}
	f.Add(seal(verdictMagic, depFP, unsorted.buf))
	// Lengths no payload can back: a verdict count, a rule count and a
	// provenance count, the last two past what an int holds.
	var counts, rules, prov encoder
	counts.uvarint(1 << 40)
	f.Add(seal(verdictMagic, depFP, counts.buf))
	for _, e := range []*encoder{&rules, &prov} {
		e.uvarint(1)
		e.uvarint(101)
		e.u64(1)
		e.u64(2)
		e.u8(0)
	}
	rules.uvarint(math.MaxUint64)
	f.Add(seal(verdictMagic, depFP, rules.buf))
	prov.uvarint(2) // one missing rule
	prov.buf = append(prov.buf, make([]byte, 12+1+1+1+1+1+1)...)
	prov.uvarint(math.MaxUint64)
	f.Add(seal(verdictMagic, depFP, prov.buf))

	f.Fuzz(func(t *testing.T, data []byte) {
		images := [][]byte{data}
		if len(data) >= frameOverhead {
			images = append(images, reframe(data, binary.LittleEndian.Uint32(data[4:])))
		}
		for _, img := range images {
			var key uint64
			if len(img) >= 16 {
				key = binary.LittleEndian.Uint64(img[8:])
			}
			if _, err := decodeVerdicts(img, key+1); err == nil {
				t.Fatalf("accepted a %d-byte image under a fingerprint it was not filed under", len(img))
			}
			vs, err := decodeVerdicts(img, key)
			if err != nil {
				continue
			}
			if again := encodeVerdicts(key, vs); !bytes.Equal(again, img) {
				t.Fatalf("accepted a %d-byte image that re-encodes to %d different bytes", len(img), len(again))
			}
		}
	})
}

// TestVerdictCodecRoundTrip pins verdict round-trip fidelity, including
// the nil-vs-empty rule slice distinction JSON report identity depends
// on, and the canonical (switch-sorted) encoding order.
func TestVerdictCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := []Verdict{
		{
			Switch: 7, LogicalFP: 11, TCAMFP: 12,
			Report: &equiv.Report{Equivalent: true},
		},
		{
			Switch: 3, LogicalFP: 21, TCAMFP: 22,
			Report: &equiv.Report{MissingRules: testRules(rng, 5), ExtraRules: []rule.Rule{}},
		},
		{
			Switch: 5, LogicalFP: 31, TCAMFP: 32,
			Report: &equiv.Report{ExtraRules: testRules(rng, 3)},
		},
	}
	const depFP = 0xdeadbeef
	data := encodeVerdicts(depFP, vs)
	got, err := decodeVerdicts(data, depFP)
	if err != nil {
		t.Fatalf("decodeVerdicts: %v", err)
	}
	want := []Verdict{vs[1], vs[2], vs[0]} // switch-sorted
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	// Nil-vs-empty survived explicitly.
	if got[0].Report.MissingRules == nil || got[0].Report.ExtraRules == nil {
		t.Fatal("empty rule slices decoded as nil")
	}
	if got[2].Report.MissingRules != nil || got[2].Report.ExtraRules != nil {
		t.Fatal("nil rule slices decoded as non-nil")
	}
	// Input order does not change the bytes.
	shuffled := []Verdict{vs[2], vs[0], vs[1]}
	if again := encodeVerdicts(depFP, shuffled); !reflect.DeepEqual(data, again) {
		t.Fatal("encoding is sensitive to input order")
	}
	for _, n := range []int{frameOverhead, len(data) - 2} {
		if _, err := decodeVerdicts(data[:n], depFP); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestStoreSaveLoad exercises the store end to end: save, reload — plus
// absence mapping to (nil, nil) and corruption mapping to an error.
func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base, _ := testBase(t, 5)
	const depFP = 0xabc
	if err := s.SaveBase(depFP, base); err != nil {
		t.Fatalf("SaveBase: %v", err)
	}
	if err := s.SaveVerdicts(depFP, false, []Verdict{
		{Switch: 1, LogicalFP: 2, TCAMFP: 3, Report: &equiv.Report{Equivalent: true}},
	}); err != nil {
		t.Fatalf("SaveVerdicts: %v", err)
	}

	got, err := s.LoadBase(depFP)
	if err != nil || got == nil {
		t.Fatalf("LoadBase: %v, %v", got, err)
	}
	snapshotsEqual(t, base.Snapshot(), got.Snapshot())
	vs, err := s.LoadVerdicts(depFP, false)
	if err != nil || len(vs) != 1 || vs[0].Switch != 1 || !vs[0].Report.Equivalent {
		t.Fatalf("LoadVerdicts: %+v, %v", vs, err)
	}

	// Absence is (nil, nil) for both kinds, and for the other mode's file.
	if b, err := s.LoadBase(depFP + 1); b != nil || err != nil {
		t.Fatalf("missing base: %v, %v", b, err)
	}
	if v, err := s.LoadVerdicts(depFP, true); v != nil || err != nil {
		t.Fatalf("missing probe verdicts: %v, %v", v, err)
	}

	// A corrupted file is an error, not a partial load.
	path := filepath.Join(dir, baseFileName(depFP))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadBase(depFP); err == nil {
		t.Fatal("corrupted base loaded")
	}
}

// TestLoadDoesNotSwallowSaveError pins who reports a failed write: the
// save itself, to its caller. A load's caller reads any error as "cold
// start" and moves on, so a later load of an absent file is (nil, nil).
func TestLoadDoesNotSwallowSaveError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveVerdicts(1, false, []Verdict{
		{Switch: 1, LogicalFP: 2, TCAMFP: 3, Report: &equiv.Report{Equivalent: true}},
	}); err == nil || !strings.Contains(err.Error(), "checks-") {
		t.Fatalf("SaveVerdicts into a removed directory: %v, want its write error", err)
	}
	if vs, err := s.LoadVerdicts(2, false); vs != nil || err != nil {
		t.Fatalf("load of an absent file: %v, %v", vs, err)
	}
}

// TestStoreGC pins the hygiene satellite: the age bound removes stale
// files, the count bound evicts least-recently-used beyond the cap, and
// foreign files in the directory are never touched.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := testBase(t, 6)
	for fp := uint64(1); fp <= 4; fp++ {
		if err := s.SaveBase(fp, base); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Age files 1 and 2 beyond the bound; 2 is then "used" (loaded),
	// which refreshes its mtime and must rescue it from the age GC.
	old := time.Now().Add(-2 * time.Hour)
	for fp := uint64(1); fp <= 2; fp++ {
		if err := os.Chtimes(filepath.Join(dir, baseFileName(fp)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.LoadBase(2); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(time.Hour, 0)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if st.Removed != 1 || st.Kept != 3 {
		t.Fatalf("age GC: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, baseFileName(1))); !os.IsNotExist(err) {
		t.Fatal("stale file survived age GC")
	}

	// LRU bound: cap at 2 files, oldest goes first.
	older := time.Now().Add(-time.Minute)
	if err := os.Chtimes(filepath.Join(dir, baseFileName(3)), older, older); err != nil {
		t.Fatal(err)
	}
	st, err = s.GC(0, 2)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if st.Removed != 1 || st.Kept != 2 {
		t.Fatalf("LRU GC: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, baseFileName(3))); !os.IsNotExist(err) {
		t.Fatal("LRU GC kept the oldest file")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("GC touched a foreign file")
	}
}

// TestGCRemovesOrphanedTempFiles: a writer killed between creating its temp
// file and renaming it leaves "<name>.scout.tmp<random>" behind, which is
// not a store file and which Open does not clean up; GC removes one old
// enough to be nobody's and leaves a live writer's alone.
func TestGCRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := testBase(t, 6)
	if err := s.SaveBase(1, base); err != nil {
		t.Fatal(err)
	}
	plant := func(age time.Duration) string {
		t.Helper()
		tmp, err := os.CreateTemp(dir, baseFileName(1)+tempMark+"*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write([]byte("half a base")); err != nil {
			t.Fatal(err)
		}
		if err := tmp.Close(); err != nil {
			t.Fatal(err)
		}
		at := time.Now().Add(-age)
		if err := os.Chtimes(tmp.Name(), at, at); err != nil {
			t.Fatal(err)
		}
		return tmp.Name()
	}
	orphan, live := plant(2*time.Minute), plant(0)

	st, err := s.GC(0, 0)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if st.Removed != 1 || st.Kept != 1 {
		t.Fatalf("GC: %+v, want the orphan removed and the one store file kept", st)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("a two-minute-old temp file survived GC")
	}
	if _, err := os.Stat(live); err != nil {
		t.Error("GC removed a fresh temp file, which a live writer may be about to rename")
	}
	if b, err := s.LoadBase(1); err != nil || b == nil {
		t.Errorf("the store file beside the orphan no longer loads: %v", err)
	}
}

// FuzzDecodeBase: whatever the bytes, the base decoder returns — it never
// panics — and an image it accepts is the one encoding of what it decoded.
// The checksum stops nearly every mutation at the frame, so each input is
// also tried with its checksum recomputed, which lets mutated payloads
// reach the snapshot, rule and memo decoders.
func FuzzDecodeBase(f *testing.F) {
	base, _ := testBase(f, 9)
	const depFP = 0x5c07
	img := encodeBase(depFP, base)
	f.Add(img)
	for _, n := range []int{0, frameOverhead - 1, frameOverhead, len(img) / 3, len(img) - 9, len(img) - 1} {
		f.Add(img[:n])
	}
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(v1BaseImage(depFP, base))
	small := equiv.NewBaseWith(nil, []rule.Rule{{Match: rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 80, PortHi: 80}, Action: rule.Allow}})
	f.Add(encodeBase(1, small))

	f.Fuzz(func(t *testing.T, data []byte) {
		images := [][]byte{data}
		if len(data) >= frameOverhead {
			images = append(images, reframe(data, binary.LittleEndian.Uint32(data[4:])))
		}
		for _, img := range images {
			var key uint64
			if len(img) >= 16 {
				key = binary.LittleEndian.Uint64(img[8:])
			}
			b, err := decodeBase(img, key)
			if err != nil {
				continue
			}
			if again := encodeBase(key, b); !bytes.Equal(again, img) {
				t.Fatalf("accepted a %d-byte image that re-encodes to %d different bytes", len(img), len(again))
			}
		}
	})
}
