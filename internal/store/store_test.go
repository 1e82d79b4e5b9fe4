// The package's case runner and codec check. The runner applies one
// stream of steps, read from an oracle.Choices, to a store directory:
// saves and loads over a few deployments, between steps that plant temp
// and foreign files, damage or misfile a file, and put a directory at a
// file's name. The reference is each name's content and the deployment
// its name is of. After every save the runner holds the directory to the
// one-deployment rule: no file of another deployment remains, nor an old
// temp file, and every directory, foreign name and young temp file does.
// A load must leave its file's mtime alone. After every step loads
// returned what the reference says, and the directory lists exactly the
// reference's files.
//
// The codec check writes a drawn base or verdicts field by field through
// encoder, with at most one deviation from what the encoder writes, or
// frames raw bytes as the payload; a decoded base's root count is then
// compared with the lists it was drawn from, as a session compares it. The
// decoder must not panic, an accepted image must re-encode to itself, an
// image the deviation left alone must be accepted with one root per list
// and decode to the very base that was built, one it changed must be
// refused (a base root past the snapshot on load, a root count other than
// the list count on that comparison), and another codec version must be
// refused as one.

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"scout/internal/bdd"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// op is one step of a run.
type op int

const (
	opSave op = iota
	opLoad
	opPlant
	opDamage
	opDirectory
)

var opNames = [...]string{"save", "load", "plant", "damage", "directory"}

// numFPs is how many deployment fingerprints a run draws from.
const numFPs = 3

// entry is the reference's view of one name in the directory.
type entry struct {
	data  []byte
	dir   bool
	good  bool   // a save's whole image
	fp    uint64 // the deployment a file's name is of; 0 for another name
	temp  bool   // a temp file a writer left
	young bool   // a temp file at its real, fresh mtime; an old one is a day old
}

// storeStats is what a run exercised.
type storeStats struct {
	refused    int // saves a directory at the name refused
	unreadable int // loads of a directory or a damaged file
	evicted    int // files of another deployment a save removed
	orphans    int // old temp files a save removed
	live       int // young temp files a save kept
	foreign    int // files the store did not name that a save kept
	dirs       int // directories at another deployment's name a save kept
}

type storeHarness struct {
	t     *testing.T
	c     *oracle.Choices
	s     *Store
	dir   string
	files map[string]*entry
	stats *storeStats
}

// runStores runs a case per seed below seeds, of steps drawn from ops.
func runStores(t *testing.T, seeds int64, steps int, ops ...op) storeStats {
	t.Helper()
	var stats storeStats
	for seed := int64(0); seed < seeds; seed++ {
		dir := filepath.Join(t.TempDir(), "state")
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := oracle.FromSeed(seed)
		h := &storeHarness{t: t, c: c, s: s, dir: dir, files: map[string]*entry{}, stats: &stats}
		for i := 0; i < steps; i++ {
			h.step(i, ops[c.Intn(len(ops))])
		}
	}
	return stats
}

func (h *storeHarness) write(name string, e *entry) {
	path, dayAgo := filepath.Join(h.dir, name), time.Now().Add(-24*time.Hour)
	if err := os.WriteFile(path, e.data, 0o644); err != nil || e.temp && !e.young && os.Chtimes(path, dayAgo, dayAgo) != nil {
		h.t.Fatalf("writing %s failed: %v", name, err)
	}
	h.files[name] = e
}

func (h *storeHarness) step(i int, kind op) {
	t, c := h.t, h.c
	t.Helper()
	// A base, or verdicts, under one of numFPs fingerprints.
	k, fp := c.Intn(2), uint64(1+c.Intn(numFPs))
	name := verdictFileName(fp)
	if k == 0 {
		name = baseFileName(fp)
	}
	label := fmt.Sprintf("step %d (%s %s)", i, opNames[kind], name)
	e := h.files[name]
	switch kind {
	case opSave:
		var data []byte
		var err error
		if k == 0 {
			b, _ := drawBase(c)
			data, err = encodeBase(fp, b), h.s.SaveBase(fp, b)
		} else {
			vs := drawVerdicts(c)
			data, err = encodeVerdicts(fp, vs), h.s.SaveVerdicts(fp, false, vs)
		}
		if e != nil && e.dir {
			h.stats.refused++
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s over a directory: %v, want its write error", label, err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", label, err)
		} else {
			h.files[name] = &entry{data: data, good: true, fp: fp}
			h.evict(fp, label)
		}
	case opLoad:
		before, _ := os.Stat(filepath.Join(h.dir, name))
		var again []byte
		var err error
		if k == 0 {
			var b *equiv.Base
			if b, err = h.s.LoadBase(fp); b != nil {
				again = encodeBase(fp, b)
			}
		} else {
			var vs []Verdict
			if vs, err = h.s.LoadVerdicts(fp, false); vs != nil {
				again = encodeVerdicts(fp, vs)
			}
		}
		switch {
		case e == nil:
			if again != nil || err != nil {
				t.Fatalf("%s of an absent file: %d bytes, %v; want (nil, nil)", label, len(again), err)
			}
		case e.dir || !e.good:
			h.stats.unreadable++
			if err == nil {
				t.Fatalf("%s loaded an unreadable or damaged file", label)
			}
		case err != nil || !bytes.Equal(again, e.data):
			t.Fatalf("%s: %v; the load re-encodes to %d bytes, the save wrote %d", label, err, len(again), len(e.data))
		}
		if after, err := os.Stat(filepath.Join(h.dir, name)); before != nil && (err != nil || !after.ModTime().Equal(before.ModTime())) {
			t.Fatalf("%s wrote its file: %v", label, err)
		}
	case opPlant:
		// An older build's probe-mode verdicts are a foreign name now.
		planted, temp := name+tempMark+fmt.Sprint(c.Intn(1000)), true
		if c.Chance(4) {
			older := fmt.Sprintf("probes-%016x%s", fp, fileSuffix)
			planted, temp = []string{"README.txt", name + ".bak", "base-stale" + fileSuffix, older}[c.Intn(4)], false
		}
		h.write(planted, &entry{data: []byte("half a file"), temp: temp, young: temp && c.Chance(2)})
	case opDamage:
		if e == nil || e.dir || len(e.data) < frameOverhead {
			break
		}
		data := slices.Clone(e.data)
		switch c.Intn(4) {
		case 0:
			data[c.Intn(len(data))] ^= 1 << c.Intn(8)
		case 1:
			data = data[:c.Intn(len(data))]
		case 2:
			version := codecVersion + 1 - 2*uint32(c.Intn(2))
			data = frame(string(data[:4]), version, binary.LittleEndian.Uint64(data[8:]), data[16:len(data)-8])
		case 3: // misfiled under the next fingerprint
			next := fp%numFPs + 1
			name, fp = strings.Replace(name, fmt.Sprintf("%016x", fp), fmt.Sprintf("%016x", next), 1), next
		}
		if h.files[name] == nil || !h.files[name].dir {
			h.write(name, &entry{data: data, fp: fp})
		}
	case opDirectory: // or, over a directory, its removal
		path, made := filepath.Join(h.dir, name), e == nil || !e.dir
		delete(h.files, name)
		if os.RemoveAll(path) != nil || made && os.Mkdir(path, 0o755) != nil {
			t.Fatalf("%s failed", label)
		}
		if made {
			h.files[name] = &entry{dir: true, fp: fp}
		}
	}
	h.check(label)
}

// evict holds the directory, after a save of deployment saved, to the
// one-deployment rule, and applies it to the reference: every file of
// another deployment and every old temp file is gone, and every
// directory, foreign name and young temp file is there.
func (h *storeHarness) evict(saved uint64, label string) {
	for name, e := range h.files {
		_, err := os.Lstat(filepath.Join(h.dir, name))
		gone := !e.dir && (e.fp != 0 && e.fp != saved || e.temp && !e.young)
		if gone != os.IsNotExist(err) {
			h.t.Fatalf("%s: %s is there: %v, want %v", label, name, !os.IsNotExist(err), !gone)
		}
		switch {
		case gone && e.temp:
			h.stats.orphans++
		case gone:
			h.stats.evicted++
		case e.temp:
			h.stats.live++
		case e.dir && e.fp != saved:
			h.stats.dirs++
		case !e.dir && e.fp == 0:
			h.stats.foreign++
		}
		if gone {
			delete(h.files, name)
		}
	}
}

// check holds the directory to the reference: the same names, each a
// directory or a file holding the reference's bytes.
func (h *storeHarness) check(label string) {
	got, want := map[string]string{}, map[string]string{}
	ents, err := os.ReadDir(h.dir)
	for _, ent := range ents {
		data, _ := os.ReadFile(filepath.Join(h.dir, ent.Name()))
		got[ent.Name()] = fmt.Sprint(ent.IsDir(), data)
	}
	for name, e := range h.files {
		want[name] = fmt.Sprint(e.dir, e.data)
	}
	if err != nil || !maps.Equal(got, want) {
		h.t.Fatalf("%s: the directory holds %v (%v), the reference %v", label, got, err, want)
	}
}

// exercised fails the test unless the runs did what the case is for.
func exercised(t *testing.T, what string, n int) {
	t.Helper()
	if n == 0 {
		t.Errorf("no run %s; the case proves nothing", what)
	}
}

func TestStoreSaveLoad(t *testing.T) {
	runStores(t, 20, 80, opSave, opLoad, opPlant, opDamage, opDirectory)
}

// TestBaseCodecRejectsDamage: neither a damaged file loads nor a base that
// breaks one invariant of a reduced, ordered BDD or of its roots.
func TestBaseCodecRejectsDamage(t *testing.T) {
	s := runStores(t, 12, 40, opSave, opLoad, opLoad, opDamage)
	exercised(t, "loaded a damaged file", s.unreadable)
	for i, payload := range malformedBases() {
		if _, err := decodeBase(frame(baseMagic, codecVersion, 0, payload), 0); err == nil {
			t.Errorf("accepted malformed base %d", i)
		}
	}
}

// malformedBases are base payloads the encoder can not write, of one-byte
// uvarints: variables, nodes, each node's level, lo and hi, then the
// roots, each one past its node.
func malformedBases() [][]byte {
	nv := byte(equiv.NumVars)
	return [][]byte{
		{0, 2, 0},                    // no variables
		{nv - 1, 2, 0},               // another variable count
		{nv, 3, nv, 0, 1, 0},         // a level out of range
		{nv, 3, 0, 2, 1, 0},          // a forward child
		{nv, 3, 0, 1, 1, 0},          // a redundant node
		{nv, 4, 5, 0, 1, 5, 0, 2, 0}, // a child above its node
		{nv, 4, 0, 0, 1, 0, 0, 1, 0}, // a duplicate node
		{nv, 3, 0, 0, 1, 1, 4},       // a root past the nodes
		{nv, 3, 0, 0, 1, 2, 3},       // two roots, one written
	}
}

// TestLoadDoesNotSwallowSaveError: a failed write is the save's error, to
// its caller, and a load of what is not a file is an error, not "absent".
func TestLoadDoesNotSwallowSaveError(t *testing.T) {
	s := runStores(t, 8, 40, opSave, opLoad, opDirectory)
	exercised(t, "saved over a directory", s.refused)
	exercised(t, "loaded a directory", s.unreadable)
}

// TestStoreKeepsOneDeployment: a save removes every file of another
// deployment, and leaves foreign files and directories in place.
func TestStoreKeepsOneDeployment(t *testing.T) {
	s := runStores(t, 12, 60, opSave, opSave, opLoad, opPlant, opDirectory)
	exercised(t, "evicted another deployment's file", s.evicted)
	exercised(t, "kept a foreign file", s.foreign)
	exercised(t, "kept a directory at another deployment's name", s.dirs)
}

// TestSaveRemovesOrphanedTempFiles: a writer killed before its rename
// leaves a temp file; a save removes an old one and leaves a live writer's.
func TestSaveRemovesOrphanedTempFiles(t *testing.T) {
	s := runStores(t, 8, 40, opSave, opPlant)
	exercised(t, "removed an orphaned temp file", s.orphans)
	exercised(t, "kept a young temp file", s.live)
}

// deviation is what an image differs by from the encoder's.
type deviation int

const (
	devNone      deviation = iota
	devPadded              // a uvarint with a redundant zero continuation byte
	devCount               // a count no payload can back
	devBound               // a rule action past int32
	devFlag                // a verdict flag of 2
	devUnsorted            // verdicts out of switch order
	devTrailing            // a byte after the payload
	devMagic               // the other file kind's magic
	devVersion             // another codec version
	devKey                 // filed under another fingerprint
	devRaw                 // up to 255 drawn bytes for the payload
	devOutside             // a base root one past the snapshot's nodes
	devRootCount           // a base root more than the lists it was built from
	numDeviations
)

// writer writes an image through encoder. A deviation that can hit many
// fields hits the at-th one; deviated says whether it hit.
type writer struct {
	encoder
	dev      deviation
	at       int
	deviated bool
}

func (w *writer) hit(dev deviation) bool {
	if w.dev != dev || w.deviated {
		return false
	}
	if w.at > 0 && dev <= devFlag {
		w.at--
		return false
	}
	w.deviated = true
	return true
}

func (w *writer) uv(v uint64) {
	w.uvarint(v)
	if w.hit(devPadded) {
		w.buf[len(w.buf)-1] |= 0x80
		w.u8(0)
	}
}

func (w *writer) count(n uint64) {
	if w.hit(devCount) {
		n = math.MaxUint64
	}
	w.uv(n)
}

// list writes a slice's length as n+1, or 0 for nil.
func (w *writer) list(isNil bool, n int) {
	if isNil {
		n = -1
	}
	w.count(uint64(n + 1))
}

func (w *writer) rules(rules []rule.Rule) {
	w.list(rules == nil, len(rules))
	for _, r := range rules {
		m := r.Match
		w.u32(uint32(m.VRF))
		w.u32(uint32(m.SrcEPG))
		w.u32(uint32(m.DstEPG))
		w.u8(byte(m.Proto))
		w.uv(uint64(m.PortLo))
		w.uv(uint64(m.PortHi))
		var flags byte
		for i, on := range []bool{m.WildcardVRF, m.WildcardSrc, m.WildcardDst} {
			if on {
				flags |= 1 << i
			}
		}
		w.u8(flags)
		action := uint64(r.Action)
		if w.hit(devBound) {
			action = math.MaxInt32 + 1
		}
		w.uv(action)
		w.uv(uint64(r.Priority<<1) ^ uint64(r.Priority>>63)) // zig-zag
		w.list(r.Provenance == nil, len(r.Provenance))
		for _, ref := range r.Provenance {
			w.uv(uint64(ref.Kind))
			w.uv(uint64(ref.ID))
		}
	}
}

func (w *writer) verdicts(vs []Verdict) {
	vs = slices.Clone(vs)
	slices.SortFunc(vs, func(a, b Verdict) int { return int(a.Switch) - int(b.Switch) })
	if len(vs) > 1 && w.hit(devUnsorted) {
		slices.Reverse(vs)
	}
	w.count(uint64(len(vs)))
	for _, v := range vs {
		w.uv(uint64(v.Switch))
		w.u64(v.LogicalFP)
		w.u64(v.TCAMFP)
		flag := byte(0)
		if v.Report.Equivalent {
			flag = 1
		}
		if w.hit(devFlag) {
			flag = 2
		}
		w.u8(flag)
		w.rules(v.Report.MissingRules)
		w.rules(v.Report.ExtraRules)
	}
}

func (w *writer) base(b *equiv.Base) {
	s := b.Snapshot()
	w.uv(uint64(s.NumVars()))
	w.count(uint64(s.Size()))
	for i := 2; i < s.Size(); i++ {
		level, lo, hi := s.NodeAt(i)
		w.uv(uint64(level))
		w.uv(uint64(lo))
		w.uv(uint64(hi))
	}
	roots := b.Roots()
	if w.hit(devRootCount) {
		roots = append(roots, bdd.False)
	}
	w.count(uint64(len(roots)))
	for _, root := range roots {
		if w.hit(devOutside) {
			root = bdd.Node(s.Size())
		}
		w.uv(uint64(root + 1))
	}
}

// seal frames the payload under magic and key.
func (w *writer) seal(magic string, key uint64) []byte {
	version := uint32(codecVersion)
	switch {
	case w.hit(devTrailing):
		w.u8(0)
	case w.hit(devMagic):
		magic = map[string]string{baseMagic: verdictMagic, verdictMagic: baseMagic}[magic]
	case w.hit(devVersion):
		version--
	case w.hit(devKey):
		key ^= 1
	}
	return frame(magic, version, key, w.buf)
}

// frame is a file image with its checksum computed.
func frame(magic string, version uint32, key uint64, payload []byte) []byte {
	e := encoder{buf: []byte(magic)}
	e.u32(version)
	e.u64(key)
	e.buf = append(e.buf, payload...)
	h := fnv.New64a()
	h.Write(e.buf)
	e.u64(h.Sum64())
	return e.buf
}

// drawRules returns nil, an empty list, or up to four rules over small
// IDs, each with nil, empty or drawn provenance.
func drawRules(c *oracle.Choices) []rule.Rule {
	switch c.Intn(3) {
	case 0:
		return nil
	case 1:
		return []rule.Rule{}
	}
	rules := make([]rule.Rule, 1+c.Intn(4))
	for i := range rules {
		lo, r := c.Uint16(), &rules[i]
		r.Match = rule.Match{VRF: object.ID(c.Intn(4)), SrcEPG: object.ID(c.Intn(8)), DstEPG: object.ID(c.Intn(8)),
			Proto: rule.Protocol(c.Intn(18)), PortLo: lo, PortHi: lo + uint16(c.Intn(int(rule.PortMax-lo)+1)),
			WildcardVRF: c.Chance(4), WildcardSrc: c.Chance(4), WildcardDst: c.Chance(4)}
		r.Action, r.Priority = rule.Action(1+c.Intn(2)), c.Intn(200)-100
		if c.Chance(3) {
			r.Provenance = []object.Ref{}
			for n := c.Intn(3); n > 0; n-- {
				r.Provenance = append(r.Provenance, object.Ref{Kind: object.Kind(c.Intn(6)), ID: object.ID(c.Uint16())})
			}
		}
	}
	return rules
}

// drawVerdicts returns up to three verdicts on distinct switches, in any
// order.
func drawVerdicts(c *oracle.Choices) []Verdict {
	vs := make([]Verdict, c.Intn(4))
	sw := object.ID(c.Intn(3))
	for i := range vs {
		vs[i] = Verdict{Switch: sw, LogicalFP: uint64(c.Uint16()) << 40, TCAMFP: uint64(c.Uint16()),
			Report: &equiv.Report{Equivalent: c.Chance(3), MissingRules: drawRules(c), ExtraRules: drawRules(c)}}
		sw += object.ID(1 + c.Intn(300))
	}
	if c.Chance(2) {
		slices.Reverse(vs)
	}
	return vs
}

// drawBase freezes up to three drawn rule lists, and returns them.
func drawBase(c *oracle.Choices) (*equiv.Base, [][]rule.Rule) {
	lists := make([][]rule.Rule, c.Intn(4))
	for i := range lists {
		lists[i] = drawRules(c)
	}
	return equiv.NewBaseWith(lists...), lists
}

// checkImage writes a base or verdict image drawn from c with deviation
// dev and holds the decoder to the codec check. A base the encoder wrote
// as it is decodes to the very value that was built (reflect.DeepEqual):
// a built base and a loaded one are one kind of Base.
func checkImage(t *testing.T, c *oracle.Choices, base bool, dev deviation) {
	t.Helper()
	w := &writer{dev: dev, at: c.Intn(8)}
	key := uint64(c.Uint16())
	var built *equiv.Base
	var lists [][]rule.Rule
	switch {
	case dev == devRaw:
		for n := c.Intn(256); n > 0; n-- {
			w.u8(c.Byte())
		}
		w.deviated = true
	case base:
		built, lists = drawBase(c)
		w.base(built)
	default:
		w.verdicts(drawVerdicts(c))
	}
	var img, again []byte
	var err error
	if base {
		img = w.seal(baseMagic, key)
		var b *equiv.Base
		if b, err = decodeBase(img, key); err == nil {
			again = encodeBase(key, b)
			if !w.deviated && !reflect.DeepEqual(b, built) {
				t.Fatalf("a base of %d lists decodes to %+v, built as %+v", len(lists), b, built)
			}
			if len(b.Roots()) != len(lists) { // a session loads one root per list, or rebuilds
				err = fmt.Errorf("%d roots, %d rule lists", len(b.Roots()), len(lists))
			}
		}
	} else {
		img = w.seal(verdictMagic, key)
		var vs []Verdict
		if vs, err = decodeVerdicts(img, key); err == nil {
			again = encodeVerdicts(key, vs)
		}
	}
	if again != nil && !bytes.Equal(again, img) || err != nil && !w.deviated || err == nil && w.deviated && dev != devRaw ||
		err != nil && dev == devVersion && !strings.Contains(err.Error(), "version") {
		t.Fatalf("deviation %d (made: %v): %v; a %d-byte image re-encodes to %d bytes", dev, w.deviated, err, len(img), len(again))
	}
}

// checkImages runs the codec check on an image per seed below seeds, for
// each of devs.
func checkImages(t *testing.T, base bool, seeds int64, devs ...deviation) {
	t.Helper()
	for _, dev := range devs {
		for seed := int64(0); seed < seeds; seed++ {
			checkImage(t, oracle.FromSeed(seed), base, dev)
		}
	}
}

func TestBaseCodecRoundTrip(t *testing.T) { checkImages(t, true, 40, devNone) }

func TestVerdictCodecRoundTrip(t *testing.T) { checkImages(t, false, 80, devNone, devUnsorted) }

// TestBaseCodecRejectsRoots: a base whose root lies past its snapshot is
// refused on load, and one whose root count is not its deployment's list
// count is refused as a session refuses it.
func TestBaseCodecRejectsRoots(t *testing.T) { checkImages(t, true, 40, devOutside, devRootCount) }

func TestCodecRejectsVersionMismatch(t *testing.T) {
	checkImages(t, true, 8, devMagic, devVersion, devKey)
	checkImages(t, false, 8, devMagic, devVersion, devKey)
}

// fuzzImages feeds the fuzzer's bytes to the codec check, the first byte
// naming the deviation. The seeds are a stream per seed below seeds, each
// naming a deviation in turn, to make at its first chance; then each raw
// payload, under key 0.
func fuzzImages(f *testing.F, base bool, seeds int, raw ...[]byte) {
	for i := range seeds {
		data := make([]byte, 98)
		rand.New(rand.NewSource(int64(i))).Read(data[2:])
		data[0], data[1] = byte(i%int(numDeviations)), 0
		f.Add(data)
	}
	for _, payload := range raw {
		f.Add(append([]byte{byte(devRaw), 0, 0, 0, byte(len(payload))}, payload...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := oracle.FromBytes(data)
		checkImage(t, c, base, deviation(c.Intn(int(numDeviations))))
	})
}

// FuzzDecodeBase runs the codec check on base images: the node table, then
// one root per rule list. Its seeds add malformedBases, raw node tables and
// roots that break one invariant each.
func FuzzDecodeBase(f *testing.F) { fuzzImages(f, true, 13, malformedBases()...) }

// FuzzDecodeVerdicts runs the codec check on verdict images. The checked-in
// seeds (testdata/fuzz) hold a padded uvarint, a flag of 2, a trailing byte
// and an action past int32.
func FuzzDecodeVerdicts(f *testing.F) { fuzzImages(f, false, 14) }
