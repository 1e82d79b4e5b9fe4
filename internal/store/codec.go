// Binary codec for the warm-state store: deterministic, versioned,
// checksummed encodings of a frozen bdd.Snapshot, an equiv.Base, and
// per-switch check verdicts. Every file is framed the same way —
//
//	magic(4) | version(u32) | key(u64) | payload | fnv64a(all preceding)
//
// — so truncation and bit flips are rejected by the trailing checksum,
// files written by a different codec revision are rejected by the
// header before any payload byte is interpreted, and a file can never
// be loaded partially: decoding happens on a fully verified byte slice
// and any structural violation (the BDD rebuild validates ROBDD
// invariants, the base rebuild validates memo bindings) aborts the
// whole load. The key is the content address the caller expects
// (DeploymentFingerprints), so a renamed or misfiled entry is rejected
// too. Encoding is deterministic for given content — iteration is over
// canonically sorted views — which keeps repeated saves of unchanged
// state byte-identical.

package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"scout/internal/bdd"
	"scout/internal/equiv"
	"scout/internal/object"
	"scout/internal/rule"
)

const (
	baseMagic    = "SCTB"
	verdictMagic = "SCTV"
	// codecVersion 2 dropped the base payload's match-memo section.
	codecVersion = 2
)

// frameOverhead is the byte cost of the framing around a payload.
const frameOverhead = 4 + 4 + 8 + 8

// encoder appends little-endian primitives to a growing buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v byte) { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

// decoder consumes a verified payload with a latched error: after the
// first failure every read returns zero and the error survives to the
// caller's single check, so decode paths need no per-read branching.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decode: "+format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() byte {
	if d.err != nil || d.remaining() < 1 {
		d.fail("truncated payload")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// uvarint accepts only the shortest encoding of a value (no padding
// continuation bytes), the one the encoder writes: an image that decodes
// re-encodes to the same bytes.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail("malformed uvarint")
		return 0
	}
	d.off += n
	return v
}

// varint is the zig-zag form of uvarint, as binary.AppendVarint writes it.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// bounded reads a uvarint destined for a narrower type, rejecting what
// would not fit instead of letting the conversion alias another value.
func (d *decoder) bounded(max uint64) uint64 {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.fail("value %d exceeds %d", v, max)
		return 0
	}
	return v
}

// node reads a BDD node ID or level.
func (d *decoder) node() int32 { return int32(d.bounded(math.MaxInt32)) }

// count reads a list length and bounds it against the bytes left (every
// element costs at least minBytes), so a corrupted count can never
// drive a giant allocation even if it somehow survived the checksum.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.remaining()/minBytes) {
		d.fail("count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// seal frames a payload into a complete file image.
func seal(magic string, key uint64, payload []byte) []byte {
	e := encoder{buf: make([]byte, 0, len(payload)+frameOverhead)}
	e.buf = append(e.buf, magic...)
	e.u32(codecVersion)
	e.u64(key)
	e.buf = append(e.buf, payload...)
	h := fnv.New64a()
	h.Write(e.buf)
	e.u64(h.Sum64())
	return e.buf
}

// open verifies a file image's framing — length, magic, version,
// checksum, and content-address key, in that order — and returns the
// payload. Version mismatches are reported distinctly from corruption:
// a well-formed file from another codec revision fails here on its
// header, not on its (valid) checksum.
func open(data []byte, magic string, key uint64) ([]byte, error) {
	if len(data) < frameOverhead {
		return nil, fmt.Errorf("store: file truncated below frame (%d bytes)", len(data))
	}
	body := data[: len(data)-8 : len(data)-8]
	if string(body[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic %q, want %q", body[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != codecVersion {
		return nil, fmt.Errorf("store: codec version %d, want %d", v, codecVersion)
	}
	h := fnv.New64a()
	h.Write(body)
	if sum := binary.LittleEndian.Uint64(data[len(data)-8:]); sum != h.Sum64() {
		return nil, fmt.Errorf("store: checksum mismatch (corrupt or truncated file)")
	}
	if k := binary.LittleEndian.Uint64(body[8:16]); k != key {
		return nil, fmt.Errorf("store: content key %#x, want %#x (misfiled entry)", k, key)
	}
	return body[16:], nil
}

// --- rule -----------------------------------------------------------------

func encodeRule(e *encoder, r rule.Rule) {
	m := r.Match
	e.u32(uint32(m.VRF))
	e.u32(uint32(m.SrcEPG))
	e.u32(uint32(m.DstEPG))
	e.u8(byte(m.Proto))
	e.uvarint(uint64(m.PortLo))
	e.uvarint(uint64(m.PortHi))
	var flags byte
	if m.WildcardVRF {
		flags |= 1
	}
	if m.WildcardSrc {
		flags |= 2
	}
	if m.WildcardDst {
		flags |= 4
	}
	e.u8(flags)
	e.uvarint(uint64(r.Action))
	e.varint(int64(r.Priority))
	// Provenance uses the n+1 length scheme (0 = nil) so the nil-vs-empty
	// distinction of the original slice survives the round trip, like
	// every rule slice in this codec.
	if r.Provenance == nil {
		e.uvarint(0)
	} else {
		e.uvarint(uint64(len(r.Provenance)) + 1)
		for _, ref := range r.Provenance {
			e.uvarint(uint64(ref.Kind))
			e.uvarint(uint64(ref.ID))
		}
	}
}

func decodeRule(d *decoder) rule.Rule {
	var r rule.Rule
	if d.remaining() < 12 {
		d.fail("truncated match")
		return r
	}
	m := &r.Match
	m.VRF = object.ID(binary.LittleEndian.Uint32(d.buf[d.off:]))
	m.SrcEPG = object.ID(binary.LittleEndian.Uint32(d.buf[d.off+4:]))
	m.DstEPG = object.ID(binary.LittleEndian.Uint32(d.buf[d.off+8:]))
	d.off += 12
	m.Proto = rule.Protocol(d.u8())
	lo, hi := d.uvarint(), d.uvarint()
	if d.err == nil && (lo > rule.PortMax || hi > rule.PortMax) {
		d.fail("port range %d-%d out of range", lo, hi)
	}
	m.PortLo, m.PortHi = uint16(lo), uint16(hi)
	flags := d.u8()
	if d.err == nil && flags > 7 {
		d.fail("unknown match flags %#x", flags)
	}
	m.WildcardVRF = flags&1 != 0
	m.WildcardSrc = flags&2 != 0
	m.WildcardDst = flags&4 != 0
	r.Action = rule.Action(d.bounded(math.MaxInt32))
	r.Priority = int(d.varint())
	if n := d.uvarint(); n > 0 {
		// Compared unsigned: a count past what an int holds must not
		// wrap below the bound.
		if n-1 > uint64(d.remaining()/2) {
			d.fail("provenance count %d exceeds payload", n-1)
			return r
		}
		r.Provenance = make([]object.Ref, n-1)
		for i := range r.Provenance {
			r.Provenance[i] = object.Ref{
				Kind: object.Kind(d.bounded(math.MaxInt32)),
				ID:   object.ID(d.bounded(math.MaxUint32)),
			}
		}
	}
	return r
}

// encodeRules writes a rule slice with the n+1 nil-preserving length.
func encodeRules(e *encoder, rules []rule.Rule) {
	if rules == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(rules)) + 1)
	for _, r := range rules {
		encodeRule(e, r)
	}
}

func decodeRules(d *decoder) []rule.Rule {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	// A rule is at least 16 bytes (match 15 + action/priority/prov).
	// Compared unsigned, like the provenance count.
	if n-1 > uint64(d.remaining()/16) {
		d.fail("rule count %d exceeds payload", n-1)
		return nil
	}
	rules := make([]rule.Rule, n-1)
	for i := range rules {
		rules[i] = decodeRule(d)
	}
	return rules
}

// --- snapshot -------------------------------------------------------------

func encodeSnapshot(e *encoder, s *bdd.Snapshot) {
	e.uvarint(uint64(s.NumVars()))
	e.uvarint(uint64(s.Size()))
	for i := 2; i < s.Size(); i++ {
		level, lo, hi := s.NodeAt(i)
		e.uvarint(uint64(level))
		e.uvarint(uint64(lo))
		e.uvarint(uint64(hi))
	}
}

func decodeSnapshot(d *decoder) (*bdd.Snapshot, error) {
	numVars := int(d.uvarint())
	numNodes64 := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// The two terminals are not streamed; every other node costs at
	// least 3 bytes, which bounds a corrupted count before allocation.
	if numNodes64 < 2 || numNodes64-2 > uint64(d.remaining()/3) {
		return nil, fmt.Errorf("store: decode: node count %d exceeds payload", numNodes64)
	}
	numNodes := int(numNodes64)
	snap, err := bdd.RebuildSnapshot(numVars, numNodes, func(int) (int32, bdd.Node, bdd.Node) {
		return d.node(), bdd.Node(d.node()), bdd.Node(d.node())
	})
	if d.err != nil {
		return nil, d.err
	}
	return snap, err
}

// --- base -----------------------------------------------------------------

// encodeBase serializes a frozen base — snapshot, then semantics memo
// with canonical rule lists — framed under the deployment fingerprint it
// is content-addressed by.
func encodeBase(depFP uint64, b *equiv.Base) []byte {
	var e encoder
	encodeSnapshot(&e, b.Snapshot())
	e.uvarint(uint64(b.NumSemantics()))
	b.ForEachSemantics(func(_ uint64, rules []rule.Rule, root bdd.Node) {
		encodeRules(&e, rules)
		e.uvarint(uint64(root))
	})
	return seal(baseMagic, depFP, e.buf)
}

// decodeBase verifies and decodes a base file image. Semantics
// fingerprints are recomputed from the decoded rule lists — never read
// from the file — so a stale key can not misfile an entry.
func decodeBase(data []byte, depFP uint64) (*equiv.Base, error) {
	payload, err := open(data, baseMagic, depFP)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: payload}
	snap, err := decodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	sems := make([]equiv.SemEntry, d.count(2))
	for i := range sems {
		sems[i] = equiv.SemEntry{Rules: decodeRules(d), Node: bdd.Node(d.node())}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: decode: %d trailing bytes after base payload", d.remaining())
	}
	return equiv.RebuildBase(snap, sems)
}

// --- verdicts -------------------------------------------------------------

// Verdict is one persisted per-switch check outcome: the report plus
// the fingerprints of the exact logical and TCAM rule lists it was
// computed from — the same replay key the in-memory session cache uses,
// so a fresh process replays it under exactly the conditions the
// original process would have.
type Verdict struct {
	Switch    object.ID
	LogicalFP uint64
	TCAMFP    uint64
	Report    *equiv.Report
}

// encodeVerdicts serializes verdicts under the deployment fingerprint.
// Entries are sorted by switch ID (on a copy; switches are unique, so the
// order is total) so repeated saves of the same cache state produce
// byte-identical files.
func encodeVerdicts(depFP uint64, vs []Verdict) []byte {
	sorted := slices.Clone(vs)
	slices.SortFunc(sorted, func(a, b Verdict) int { return cmp.Compare(a.Switch, b.Switch) })
	var e encoder
	e.uvarint(uint64(len(sorted)))
	for _, v := range sorted {
		e.uvarint(uint64(v.Switch))
		e.u64(v.LogicalFP)
		e.u64(v.TCAMFP)
		if v.Report.Equivalent {
			e.u8(1)
		} else {
			e.u8(0)
		}
		encodeRules(&e, v.Report.MissingRules)
		encodeRules(&e, v.Report.ExtraRules)
	}
	return seal(verdictMagic, depFP, e.buf)
}

func decodeVerdicts(data []byte, depFP uint64) ([]Verdict, error) {
	payload, err := open(data, verdictMagic, depFP)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: payload}
	vs := make([]Verdict, d.count(20))
	for i := range vs {
		v := Verdict{
			Switch:    object.ID(d.bounded(math.MaxUint32)),
			LogicalFP: d.u64(),
			TCAMFP:    d.u64(),
		}
		// The encoder writes one verdict a switch, in switch order.
		if d.err == nil && i > 0 && v.Switch <= vs[i-1].Switch {
			d.fail("verdict for switch %d follows switch %d", v.Switch, vs[i-1].Switch)
		}
		eq := d.u8()
		if d.err == nil && eq > 1 {
			d.fail("verdict flag %d", eq)
		}
		v.Report = &equiv.Report{
			Equivalent:   eq == 1,
			MissingRules: decodeRules(d),
			ExtraRules:   decodeRules(d),
		}
		vs[i] = v
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: decode: %d trailing bytes after verdict payload", d.remaining())
	}
	return vs, nil
}
