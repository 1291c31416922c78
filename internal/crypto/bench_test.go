package crypto

import (
	"testing"

	"ringbft/internal/types"
)

// Microbenchmarks for the authentication mix of Section 3: MACs must be an
// order of magnitude cheaper than signatures for the intra-shard/cross-shard
// split to pay off.

func benchRings(b *testing.B) (*KeyRing, *KeyRing, types.NodeID, types.NodeID) {
	b.Helper()
	kg := NewKeygen(1)
	x, y := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	kg.Register(x)
	kg.Register(y)
	rx, _ := kg.Ring(x)
	ry, _ := kg.Ring(y)
	return rx, ry, x, y
}

func BenchmarkMAC(b *testing.B) {
	rx, _, _, y := benchRings(b)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.MAC(y, msg)
	}
}

// BenchmarkAppendMAC is the fully zero-allocation variant used by broadcast
// loops: the tag lands in a caller-provided buffer.
func BenchmarkAppendMAC(b *testing.B) {
	rx, _, _, y := benchRings(b)
	msg := make([]byte, 128)
	dst := make([]byte, 0, MACSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = rx.AppendMAC(dst[:0], y, msg)
	}
	_ = dst
}

func BenchmarkVerifyMAC(b *testing.B) {
	rx, ry, x, y := benchRings(b)
	msg := make([]byte, 128)
	tag := rx.MAC(y, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ry.VerifyMAC(x, msg, tag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	rx, _, _, _ := benchRings(b)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.Sign(msg)
	}
}

// BenchmarkSignVerify measures a full sign+verify round trip — the per-hop
// cross-shard cost a Forward message pays (Section 3's DS price).
func BenchmarkSignVerify(b *testing.B) {
	rx, ry, x, _ := benchRings(b)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := rx.Sign(msg)
		if err := ry.Verify(x, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignature(b *testing.B) {
	rx, ry, x, _ := benchRings(b)
	msg := make([]byte, 128)
	sig := rx.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ry.Verify(x, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleRoot100(b *testing.B) {
	leaves := make([]types.Digest, 100)
	for i := range leaves {
		leaves[i] = types.Digest{byte(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MerkleRoot(leaves)
	}
}
