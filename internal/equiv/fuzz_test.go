package equiv

import (
	"math/rand"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// fuzzIDs is what a fuzzed ID byte selects from: neighbours at both ends
// of the 16-bit space, so rules collide and differ in high and low bits,
// and one value past the encoding.
var fuzzIDs = [16]object.ID{0, 1, 2, 3, 4, 5, 6, 7, 255, 256, 257, 32767, 32768, 65534, 65535, maxID + 1}

var fuzzProtos = [4]rule.Protocol{rule.ProtoAny, rule.ProtoTCP, rule.ProtoUDP, 255}

// fuzzRules decodes eight bytes a rule, at most 64 rules: a flag byte
// (bits 0-2 wildcard VRF/src/dst, 3-4 protocol, 5 full port range, 6
// single port, 7 deny), three ID selectors, and the port bounds as given —
// inverted ranges included, which both constructions must reject alike.
func fuzzRules(data []byte) []rule.Rule {
	var rules []rule.Rule
	for ; len(data) >= 8 && len(rules) < 64; data = data[8:] {
		flags := data[0]
		m := rule.Match{
			VRF:         fuzzIDs[data[1]&15],
			SrcEPG:      fuzzIDs[data[2]&15],
			DstEPG:      fuzzIDs[data[3]&15],
			WildcardVRF: flags&1 != 0,
			WildcardSrc: flags&2 != 0,
			WildcardDst: flags&4 != 0,
			Proto:       fuzzProtos[flags>>3&3],
			PortLo:      uint16(data[4])<<8 | uint16(data[5]),
			PortHi:      uint16(data[6])<<8 | uint16(data[7]),
		}
		switch {
		case flags&0x20 != 0:
			m.PortLo, m.PortHi = 0, rule.PortMax
		case flags&0x40 != 0:
			m.PortHi = m.PortLo
		}
		r := rule.Rule{Match: m, Action: rule.Allow}
		if flags&0x80 != 0 {
			r.Action = rule.Deny
		}
		rules = append(rules, r)
	}
	return rules
}

// FuzzCompileSemantics: for any decodable rule list the compiled root is
// the oracle fold's node in the same manager — or both fail with the same
// error — and it evaluates like a plain first-match scan on packets drawn
// from the rules' corners. The list is then cut in two, the first half
// frozen and the second compiled in a fork, memo-less and through a memo
// the two share: same nodes, same node counts (checkMemoInvisible).
func FuzzCompileSemantics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xa7, 0, 0, 0, 0, 0, 0, 0}) // default deny alone
	f.Fuzz(func(t *testing.T, data []byte) {
		rules := fuzzRules(data)
		m := bdd.NewManager(NumVars)
		want, wantErr := oracleSemantics(m, rules)
		got, gotErr := compileSemantics(m, rules)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("compile error %v, fold error %v\nrules: %v", gotErr, wantErr, rules)
			}
			return
		}
		if got != want {
			t.Fatalf("compiled root %d, fold root %d\nrules: %v", got, want, rules)
		}
		checkCornerPackets(t, m, got, rules, rand.New(rand.NewSource(int64(len(data)))))
		half := len(rules) / 2
		checkMemoInvisible(t, [][]rule.Rule{rules[:half], rules}, [][]rule.Rule{rules[half:], rules[:half], rules})
	})
}
