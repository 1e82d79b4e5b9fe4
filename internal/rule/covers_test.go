package rule_test

import (
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// The first-match definition the checker's tests hold compiled diagrams
// to (oracle.Covers), on packets at a match's edges.

func TestMatchCovers(t *testing.T) {
	m := rule.Match{VRF: 101, SrcEPG: 1, DstEPG: 2, Proto: rule.ProtoTCP, PortLo: 80, PortHi: 90}
	tests := []struct {
		name  string
		vrf   object.ID
		src   object.ID
		dst   object.ID
		proto rule.Protocol
		port  uint16
		want  bool
	}{
		{"exact", 101, 1, 2, rule.ProtoTCP, 80, true},
		{"port-in-range", 101, 1, 2, rule.ProtoTCP, 85, true},
		{"port-hi-edge", 101, 1, 2, rule.ProtoTCP, 90, true},
		{"port-below", 101, 1, 2, rule.ProtoTCP, 79, false},
		{"port-above", 101, 1, 2, rule.ProtoTCP, 91, false},
		{"wrong-vrf", 102, 1, 2, rule.ProtoTCP, 80, false},
		{"wrong-src", 101, 9, 2, rule.ProtoTCP, 80, false},
		{"wrong-dst", 101, 1, 9, rule.ProtoTCP, 80, false},
		{"wrong-proto", 101, 1, 2, rule.ProtoUDP, 80, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := oracle.Covers(m, tt.vrf, tt.src, tt.dst, tt.proto, tt.port); got != tt.want {
				t.Errorf("Covers = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchCoversWildcards(t *testing.T) {
	m := rule.DefaultDeny().Match
	if !oracle.Covers(m, 1, 2, 3, rule.ProtoTCP, 80) || !oracle.Covers(m, 0, 0, 0, rule.ProtoICMP, 0) {
		t.Error("default deny must cover everything")
	}
	// rule.ProtoAny in match covers any protocol.
	m2 := rule.Match{VRF: 1, SrcEPG: 1, DstEPG: 1, Proto: rule.ProtoAny, PortLo: 0, PortHi: rule.PortMax}
	if !oracle.Covers(m2, 1, 1, 1, rule.ProtoUDP, 9999) {
		t.Error("rule.ProtoAny should match udp")
	}
}
