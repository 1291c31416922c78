package pbft

import (
	"fmt"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// certFixture builds a cluster of n registered replicas of shard 0 and a
// valid commit certificate of n signatures over digest d at (view 1, seq 7).
func certFixture(t testing.TB, n int) (*crypto.Keygen, []types.Signed, types.Digest) {
	t.Helper()
	kg := crypto.NewKeygen(31)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.ReplicaNode(0, i)
		kg.Register(ids[i])
	}
	d := types.Digest{4, 2}
	cert := make([]types.Signed, n)
	for i, id := range ids {
		ring, err := kg.Ring(id)
		if err != nil {
			t.Fatal(err)
		}
		s := types.Signed{From: id, Type: types.MsgCommit, Shard: 0, View: 1, Seq: 7, Digest: d}
		s.Sig = ring.Sign(s.SigBytes())
		cert[i] = s
	}
	return kg, cert, d
}

func fixtureVerifier(t testing.TB, kg *crypto.Keygen) *crypto.Verifier {
	t.Helper()
	ring, err := kg.Ring(types.ReplicaNode(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return crypto.NewVerifier(ring)
}

// TestVerifyCertTamperTable runs an adversarial table against VerifyCert:
// every tampered certificate must be rejected and the valid one accepted.
func TestVerifyCertTamperTable(t *testing.T) {
	kg, cert, d := certFixture(t, 4)
	copyCert := func() []types.Signed {
		c := make([]types.Signed, len(cert))
		copy(c, cert)
		return c
	}
	cases := []struct {
		name string
		cert func() []types.Signed
		dig  types.Digest
		ok   bool
	}{
		{"valid", copyCert, d, true},
		{"valid with one junk entry", func() []types.Signed {
			c := copyCert()
			c[3].Sig = append([]byte(nil), c[3].Sig...)
			c[3].Sig[0] ^= 1
			return c
		}, d, true}, // 3 valid of 4 still meets quorum 3
		{"wrong digest expected", copyCert, types.Digest{0xFF}, false},
		{"flipped sig byte", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].Sig = append([]byte(nil), c[i].Sig...)
				c[i].Sig[20] ^= 1
			}
			return c
		}, d, false},
		{"entry digest swapped", func() []types.Signed {
			c := copyCert()
			c[0].Digest = types.Digest{1}
			c[1].Digest = types.Digest{1}
			return c
		}, d, false},
		{"duplicate signers", func() []types.Signed {
			return []types.Signed{cert[0], cert[0], cert[0], cert[0]}
		}, d, false},
		{"truncated below quorum", func() []types.Signed { return cert[:2] }, d, false},
		{"foreign shard member", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].From.Shard = 1
			}
			return c
		}, d, false},
		{"wrong type", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].Type = types.MsgPrepare
			}
			return c
		}, d, false},
		{"split views", func() []types.Signed {
			c := copyCert()
			c[0].View = 2
			c[1].View = 3
			return c
		}, d, false}, // only 2 entries left in the (1,7) group
	}
	v := fixtureVerifier(t, kg)
	v.SetMemoSize(0) // isolate verification from the memo
	for _, tc := range cases {
		err := VerifyCert(v, 0, tc.dig, tc.cert(), 3)
		if tc.ok && err != nil {
			t.Errorf("%s: valid cert rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: tampered cert accepted", tc.name)
		}
	}
}

// TestVerifyCertMemoPoisoning: a certificate for the same (shard, view, seq)
// whose signatures differ from ones that already verified must be checked
// for real and rejected — and failures must never populate the memo.
func TestVerifyCertMemoPoisoning(t *testing.T) {
	kg, cert, d := certFixture(t, 4)
	v := fixtureVerifier(t, kg)

	if err := VerifyCert(v, 0, d, cert, 3); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	if hits := v.MemoHits(); hits != 0 {
		t.Fatalf("first verification counted %d memo hits", hits)
	}
	if err := VerifyCert(v, 0, d, cert, 3); err != nil {
		t.Fatalf("re-delivered cert rejected: %v", err)
	}
	if hits := v.MemoHits(); hits != 3 {
		t.Fatalf("re-delivery hit the memo %d times, want 3 (the quorum)", hits)
	}
	// A differently assembled copy — same signatures, other order, one junk
	// entry — is served from the memo too: the key is per signature, not
	// per certificate.
	reordered := []types.Signed{cert[2], {From: cert[3].From, Type: types.MsgCommit, Shard: 0, View: 1, Seq: 7, Digest: d, Sig: []byte("junk")}, cert[0], cert[1]}
	if err := VerifyCert(v, 0, d, reordered, 3); err != nil {
		t.Fatalf("re-assembled cert rejected: %v", err)
	}
	if hits := v.MemoHits(); hits != 6 {
		t.Fatalf("re-assembled cert: %d memo hits, want 6", hits)
	}

	// Same slot, tampered signatures: must miss the memo and be rejected.
	poisoned := make([]types.Signed, len(cert))
	copy(poisoned, cert)
	for i := range poisoned {
		poisoned[i].Sig = append([]byte(nil), cert[i].Sig...)
		poisoned[i].Sig[5] ^= 1
	}
	for round := 0; round < 2; round++ { // round 2: the failure was not stored
		if err := VerifyCert(v, 0, d, poisoned, 3); err == nil {
			t.Fatalf("round %d: tampered cert for a verified slot accepted", round)
		}
	}
	if hits := v.MemoHits(); hits != 6 {
		t.Fatalf("a tampered signature hit the memo (hits=%d)", hits)
	}
	if err := VerifyCert(v, 0, d, cert, 3); err != nil {
		t.Fatalf("original cert no longer accepted after poisoning attempt: %v", err)
	}
	// A memoized signature must not vouch for a different expected digest.
	if err := VerifyCert(v, 0, types.Digest{0xFF}, cert, 3); err == nil {
		t.Fatal("memoized signatures accepted for a different digest")
	}
}

// BenchmarkVerifyCert measures commit-certificate verification at quorum
// sizes nf = 2, 4, 8 in two modes: every signature verified for real, and a
// verified-signature memo hit. Run with -benchmem.
func BenchmarkVerifyCert(b *testing.B) {
	for _, nf := range []int{2, 4, 8} {
		kg, cert, d := certFixture(b, nf)
		for _, mode := range []struct {
			name  string
			cache bool
		}{{"serial", false}, {"cachehit", true}} {
			b.Run(fmt.Sprintf("nf=%d/%s", nf, mode.name), func(b *testing.B) {
				v := fixtureVerifier(b, kg)
				if !mode.cache {
					v.SetMemoSize(0)
				} else if err := VerifyCert(v, 0, d, cert, nf); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := VerifyCert(v, 0, d, cert, nf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
