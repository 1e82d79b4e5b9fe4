// Header-space cube extraction: decoding the difference BDD back into
// TCAM-style rules. The paper's checker "generates a set of missing TCAM
// rules that explains the difference"; MissingSpace produces that set
// directly from the header space, independent of which logical rules the
// difference maps onto. Useful when the logical rule list is unavailable
// (e.g. diffing two collected TCAM snapshots) and as a cross-check of
// the rule-level attribution.

package equiv

import (
	"fmt"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// Cube is one maximal don't-care cube of the difference BDD, decoded
// into header fields. A nil/absent constraint means the field is
// unconstrained in the cube.
type Cube struct {
	// VRF, SrcEPG, DstEPG, Proto are exact when the corresponding Has*
	// flag is set; ranges arise only on the port field.
	VRF    object.ID
	SrcEPG object.ID
	DstEPG object.ID
	Proto  rule.Protocol
	PortLo uint16
	PortHi uint16

	HasVRF   bool
	HasSrc   bool
	HasDst   bool
	HasProto bool
}

// String renders the cube like a ternary TCAM entry.
func (c Cube) String() string {
	field := func(has bool, v uint32) string {
		if !has {
			return "*"
		}
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("vrf=%s src=%s dst=%s proto=%s ports=%d-%d",
		field(c.HasVRF, uint32(c.VRF)),
		field(c.HasSrc, uint32(c.SrcEPG)),
		field(c.HasDst, uint32(c.DstEPG)),
		field(c.HasProto, uint32(c.Proto)),
		c.PortLo, c.PortHi)
}

// MaxCubes caps cube enumeration; differences beyond this are truncated
// (the rule-level report in Check has no such cap).
const MaxCubes = 10000

// MissingSpace diffs two rule lists and returns the missing behaviour
// (allowed by a but not by b) as decoded header-space cubes, truncated
// at MaxCubes.
func (c *Checker) MissingSpace(a, b []rule.Rule) ([]Cube, error) {
	aSem, err := c.semantics(a)
	if err != nil {
		return nil, err
	}
	bSem, err := c.collected(b)
	if err != nil {
		return nil, err
	}
	return c.decodeCubes(c.m.Diff(aSem, bSem)), nil
}

// decodeCubes enumerates the BDD's satisfying cubes and decodes each
// into header fields. BDD cubes are ternary on individual bits; a cube
// with partially-constrained ID fields decodes into the covering value
// range on that field, which for the port field is reported as a range
// and for ID fields is split into exact cubes per enumerated value only
// when fully constrained (partially-constrained ID fields decode as
// unconstrained, a sound over-approximation for display purposes).
func (c *Checker) decodeCubes(n bdd.Node) []Cube {
	var out []Cube
	c.m.AllSat(n, func(lits []bdd.Lit) bool {
		out = append(out, decodeCube(lits))
		return len(out) < MaxCubes
	})
	return out
}

func decodeCube(lits []bdd.Lit) Cube {
	cube := Cube{}
	if v, exact := decodeField(lits, vrfOff, vrfBits); exact {
		cube.VRF = object.ID(v)
		cube.HasVRF = true
	}
	if v, exact := decodeField(lits, srcOff, epgBits); exact {
		cube.SrcEPG = object.ID(v)
		cube.HasSrc = true
	}
	if v, exact := decodeField(lits, dstOff, epgBits); exact {
		cube.DstEPG = object.ID(v)
		cube.HasDst = true
	}
	if v, exact := decodeField(lits, protoOff, protoBits); exact {
		cube.Proto = rule.Protocol(v)
		cube.HasProto = true
	}
	cube.PortLo, cube.PortHi = decodeRange(lits, portOff, portBits)
	return cube
}

// decodeField reads a bit field; exact is false when any bit is a
// don't-care.
func decodeField(lits []bdd.Lit, off, width int) (uint32, bool) {
	v := uint32(0)
	exact := true
	for i := 0; i < width; i++ {
		v <<= 1
		switch lits[off+i] {
		case bdd.LitTrue:
			v |= 1
		case bdd.LitFalse:
		default:
			exact = false
		}
	}
	return v, exact
}

// decodeRange computes the min/max values a ternary bit field covers.
func decodeRange(lits []bdd.Lit, off, width int) (lo, hi uint16) {
	var loV, hiV uint32
	for i := 0; i < width; i++ {
		loV <<= 1
		hiV <<= 1
		switch lits[off+i] {
		case bdd.LitTrue:
			loV |= 1
			hiV |= 1
		case bdd.LitFalse:
		default:
			hiV |= 1
		}
	}
	return uint16(loV), uint16(hiV)
}
