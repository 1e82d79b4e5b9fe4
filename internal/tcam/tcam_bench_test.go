package tcam

import (
	"fmt"
	"math/rand"
	"testing"

	"scout/internal/object"
	"scout/internal/rule"
)

func populated(b *testing.B, n int) *TCAM {
	b.Helper()
	tc := New(n + 1)
	for i := 0; i < n; i++ {
		r := mkRule(object.ID(i%8), object.ID(i%16), object.ID(i%32), uint16(i), 10)
		if err := tc.Install(r); err != nil {
			b.Fatal(err)
		}
	}
	return tc
}

// BenchmarkInstall measures rule installation — the indexed duplicate
// check plus the binary-search insert into match order.
func BenchmarkInstall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tc := New(1024)
		b.StartTimer()
		for p := 0; p < 512; p++ {
			r := mkRule(1, 2, 3, uint16(p), p%4*10)
			if err := tc.Install(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInstallAll measures the same 512 installs as BenchmarkInstall
// handed over as one batch: one lock, table and index sized up front.
func BenchmarkInstallAll(b *testing.B) {
	batch := make([]rule.Rule, 512)
	for p := range batch {
		batch[p] = mkRule(1, 2, 3, uint16(p), p%4*10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tc := New(1024)
		b.StartTimer()
		if held := tc.InstallAll(batch); held != len(batch) {
			b.Fatalf("table holds %d of %d", held, len(batch))
		}
	}
}

// BenchmarkClassifyBatch measures the rule-major batched pass at several
// table densities. The batch holds one packet per installed rule (the
// probe workload shape: one probe per filter entry) plus a tail of
// no-match packets that force full table scans.
func BenchmarkClassifyBatch(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		tc := populated(b, size)
		pkts := make([]Packet, 0, size+size/8)
		for i := 0; i < size; i++ {
			pkts = append(pkts, Packet{
				VRF: object.ID(i % 8), Src: object.ID(i % 16), Dst: object.ID(i % 32),
				Proto: rule.ProtoTCP, Port: uint16(i),
			})
		}
		for i := 0; i < size/8; i++ {
			pkts = append(pkts, Packet{VRF: 999, Src: 999, Dst: 999, Proto: rule.ProtoTCP, Port: 1})
		}
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := tc.ClassifyBatch(pkts); len(out) != len(pkts) {
					b.Fatal("bad batch")
				}
			}
		})
	}
}

// withdrawTable is the size of one switch's table at production x0.25,
// and withdrawStride spreads a withdrawal over it the way an object-fault
// set does (~550 of ~6k entries a table).
const (
	withdrawTable  = 6000
	withdrawStride = 11
)

// benchWithdraw times withdraw on batches of keys spread evenly over a
// 6k-entry table, refilling the table off the clock; ns/op is per key
// withdrawn, so per-key and batched withdrawal read on one scale.
func benchWithdraw(b *testing.B, withdraw func(tc *TCAM, keys []rule.Key)) {
	tc := populated(b, withdrawTable)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		rules := tc.Rules()
		keys := make([]rule.Key, 0, len(rules)/withdrawStride+1)
		for i := 0; i < len(rules) && done+len(keys) < b.N; i += withdrawStride {
			keys = append(keys, rules[i].Key())
		}
		b.StartTimer()
		withdraw(tc, keys)
		b.StopTimer()
		if tc.Len() != len(rules)-len(keys) {
			b.Fatalf("withdrew %d of %d keys", len(rules)-tc.Len(), len(keys))
		}
		for i := 0; i < len(rules); i += withdrawStride {
			if err := tc.Install(rules[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		done += len(keys)
	}
}

// BenchmarkRemove measures withdrawing entries one Remove at a time: an
// index lookup, a binary search and a memmove of the tail per key.
func BenchmarkRemove(b *testing.B) {
	benchWithdraw(b, func(tc *TCAM, keys []rule.Key) {
		for _, k := range keys {
			tc.Remove(k)
		}
	})
}

// BenchmarkRemoveKeys measures the same withdrawal as one batch: the
// lookups, then a single compaction pass over the table.
func BenchmarkRemoveKeys(b *testing.B) {
	benchWithdraw(b, func(tc *TCAM, keys []rule.Key) { tc.RemoveKeys(keys) })
}

// BenchmarkSnapshot measures full-table collection (the T-type dump the
// checker consumes): clean, where every read hands back the snapshot
// already published, and dirtied, where a write between reads (one
// Remove or Install, on the clock but small beside the copy) makes each
// read build a fresh one.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		tc := populated(b, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rules := tc.Rules(); len(rules) != 2048 {
				b.Fatal("bad snapshot")
			}
		}
	})
	b.Run("dirtied", func(b *testing.B) {
		tc := populated(b, 2048)
		toggle := tc.Rules()[1024]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				tc.Remove(toggle.Key())
			} else if err := tc.Install(toggle); err != nil {
				b.Fatal(err)
			}
			if rules := tc.Rules(); len(rules) != 2048-(i+1)%2 {
				b.Fatal("bad snapshot")
			}
		}
	})
}

// BenchmarkCorrupt measures fault injection.
func BenchmarkCorrupt(b *testing.B) {
	tc := populated(b, 2048)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Corrupt(8, CorruptVRF, rng)
	}
}
