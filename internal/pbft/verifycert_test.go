package pbft

import (
	"bytes"
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

func fixtureRing(t testing.TB, kg *crypto.Keygen) *crypto.KeyRing {
	t.Helper()
	ring, err := kg.Ring(types.ReplicaNode(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ring
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
		{"garbage duplicates of one sender", func() []types.Signed {
			c := make([]types.Signed, 0, 10003)
			for i := 0; i < 10000; i++ {
				g := cert[0]
				g.Sig = []byte{byte(i), byte(i >> 8)}
				c = append(c, g)
			}
			return append(c, cert[1:]...)
		}, d, true}, // sender 0 counts on its first entry only; 1-3 make quorum
		{"garbage duplicates, valid copy last", func() []types.Signed {
			c := []types.Signed{cert[1], cert[2]}
			for i := 0; i < 10000; i++ {
				g := cert[0]
				g.Sig = []byte{byte(i), byte(i >> 8)}
				c = append(c, g)
			}
			return append(c, cert[0])
		}, d, false},
	}
	ring, err := kg.Ring(types.ReplicaNode(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingAuth{Authenticator: ring}
	for _, tc := range cases {
		counter.calls = 0
		_, err := VerifyCert(counter, 0, tc.dig, tc.cert(), 3, nil)
		if tc.ok && err != nil {
			t.Errorf("%s: valid cert rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: tampered cert accepted", tc.name)
		}
		// One Ed25519 check per sender and (view, seq) at most, whatever
		// the certificate's length: every case names at most 4 senders.
		if counter.calls > 4 {
			t.Errorf("%s: %d signature checks, want at most 4", tc.name, counter.calls)
		}
	}
}

// countingAuth counts the signature checks that reach its Authenticator.
type countingAuth struct {
	crypto.Authenticator
	calls int
}

func (a *countingAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	a.calls++
	return a.Authenticator.Verify(signer, msg, sig)
}

// TestVerifyCertComparesHeldEntries: an entry equal to one of the held
// certificate's entries is compared, not verified; any entry whose tuple or
// signature bytes differ from every held entry is verified, and rejected if
// bad.
func TestVerifyCertComparesHeldEntries(t *testing.T) {
	kg, cert, d := certFixture(t, 4)
	ring, err := kg.Ring(types.ReplicaNode(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingAuth{Authenticator: ring}
	flipped := func(c []types.Signed, i int) []types.Signed {
		c = append([]types.Signed(nil), c...)
		c[i].Sig = append([]byte(nil), c[i].Sig...)
		c[i].Sig[5] ^= 1
		return c
	}
	junk := types.Signed{From: cert[3].From, Type: types.MsgCommit, Shard: 0, View: 1, Seq: 7, Digest: d, Sig: []byte("junk")}
	cases := []struct {
		name   string
		cert   []types.Signed
		dig    types.Digest
		ok     bool
		checks int // Ed25519 calls that reach the key ring
	}{
		{"the held certificate", cert, d, true, 0},
		{"reordered, one junk entry", []types.Signed{cert[2], junk, cert[0], cert[1]}, d, true, 1},
		{"one signature flipped", flipped(cert[:3], 1), d, false, 1},
		{"every signature flipped", flipped(flipped(flipped(cert[:3], 0), 1), 2), d, false, 3},
		{"flipped entry, then a valid fourth", flipped(cert, 0), d, true, 1},
		{"held signatures under another view", func() []types.Signed {
			c := append([]types.Signed(nil), cert[:3]...)
			for i := range c {
				c[i].View = 2
			}
			return c
		}(), d, false, 3},
		{"held certificate, another digest expected", cert, types.Digest{0xFF}, false, 0},
	}
	for _, tc := range cases {
		counter.calls = 0
		kept, err := VerifyCert(counter, 0, tc.dig, tc.cert, 3, cert)
		if tc.ok != (err == nil) {
			t.Errorf("%s: accepted=%v, want %v (%v)", tc.name, err == nil, tc.ok, err)
		}
		if counter.calls != tc.checks {
			t.Errorf("%s: %d signature checks, want %d", tc.name, counter.calls, tc.checks)
		}
		if len(kept) != len(cert) {
			t.Errorf("%s: kept %d entries, want the %d held: no tampered entry verifies", tc.name, len(kept), len(cert))
		}
	}

	// Starting from nothing, a certificate's verified entries are kept, and
	// a second copy costs no check.
	counter.calls = 0
	kept, err := VerifyCert(counter, 0, d, cert, 3, nil)
	if err != nil || len(kept) != 3 || counter.calls != 3 {
		t.Fatalf("first copy: err=%v, kept %d with %d checks, want nil, 3 with 3", err, len(kept), counter.calls)
	}
	if _, err := VerifyCert(counter, 0, d, cert[:3], 3, kept); err != nil || counter.calls != 3 {
		t.Fatalf("second copy: err=%v, %d checks in all, want nil, 3", err, counter.calls)
	}

	// What is kept is bounded at three quorums' worth.
	full := make([]types.Signed, 9)
	for i := range full {
		full[i] = types.Signed{From: cert[0].From, Type: types.MsgCommit, View: 9, Seq: types.SeqNum(i), Digest: d}
	}
	if kept, err := VerifyCert(counter, 0, d, cert, 3, full); err != nil || len(kept) != 9 {
		t.Fatalf("full held list: err=%v, kept %d, want nil, 9", err, len(kept))
	}
}

// BenchmarkVerifyCert measures commit-certificate verification at quorum
// sizes nf = 2, 4, 8 in two modes: every signature verified for real, and a
// copy of a certificate the caller already holds, compared entry by entry.
// Run with -benchmem.
func BenchmarkVerifyCert(b *testing.B) {
	for _, nf := range []int{2, 4, 8} {
		kg, cert, d := certFixture(b, nf)
		ring := fixtureRing(b, kg)
		for _, mode := range []struct {
			name string
			held []types.Signed
		}{{"serial", nil}, {"held", cert}} {
			b.Run(fmt.Sprintf("nf=%d/%s", nf, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := VerifyCert(ring, 0, d, cert, nf, mode.held); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// FuzzVerifyCert builds a certificate from fuzz bytes, five per entry:
// sender (a replica of shard 0 or 1, index 0-5, of which 0-3 hold keys),
// view and sequence, digest and type, and a signature drawn from a real
// one over the entry's tuple, a mutated real one, or garbage. VerifyCert
// must never panic, and must accept exactly when at least quorum distinct
// replicas of shard 0 hold an entry for the expected digest at one (view,
// seq) whose signature verifies — checked on the key ring entry by entry —
// whether it holds no certificate or the fuzzed one's valid entries.
func FuzzVerifyCert(f *testing.F) {
	const quorum = 3
	kg := crypto.NewKeygen(31)
	rings := make(map[types.NodeID]*crypto.KeyRing)
	for s := 0; s < 2; s++ {
		for i := 0; i < 4; i++ {
			kg.Register(types.ReplicaNode(types.ShardID(s), i))
		}
	}
	for s := 0; s < 2; s++ {
		for i := 0; i < 4; i++ {
			id := types.ReplicaNode(types.ShardID(s), i)
			ring, err := kg.Ring(id)
			if err != nil {
				f.Fatal(err)
			}
			rings[id] = ring
		}
	}
	checker := rings[types.ReplicaNode(0, 0)]
	d := types.Digest{4, 2}

	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0})                // valid quorum
	f.Add([]byte{0, 0, 0, 2, 9, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0}) // garbage, then the same sender valid: rejected
	f.Add([]byte{0, 0, 0, 1, 3, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 0, 0}) // one mutated of four
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0})                // split views
	f.Add([]byte{6, 0, 0, 0, 0, 7, 0, 0, 0, 0, 8, 0, 0, 0, 0})                // another shard's replicas
	f.Add([]byte{4, 0, 0, 0, 0, 5, 0, 1, 0, 0, 2, 0, 2, 0, 0})                // keyless senders, wrong digest and type

	f.Fuzz(func(t *testing.T, raw []byte) {
		var cert []types.Signed
		for len(raw) >= 5 && len(cert) < 8 {
			b := raw[:5]
			raw = raw[5:]
			from := types.ReplicaNode(types.ShardID(b[0]/6%2), int(b[0]%6))
			s := types.Signed{
				From: from, Type: types.MsgCommit, Shard: 0,
				View: types.View(b[1] & 1), Seq: 7 + types.SeqNum(b[1]>>1&1), Digest: d,
			}
			if b[2]&1 != 0 {
				s.Digest = types.Digest{9}
			}
			if b[2]&2 != 0 {
				s.Type = types.MsgPrepare
			}
			ring := rings[from]
			switch {
			case b[3]%3 == 2 || ring == nil:
				s.Sig = bytes.Repeat([]byte{b[4]}, 64)
			default:
				s.Sig = ring.Sign(s.SigBytes())
				if b[3]%3 == 1 {
					s.Sig[b[4]%64] ^= 1
				}
			}
			cert = append(cert, s)
		}

		type slot struct {
			view types.View
			seq  types.SeqNum
		}
		first := make(map[slot]map[types.NodeID]bool) // sender -> its first entry verifies
		valid := make(map[slot]int)
		var held []types.Signed // every entry whose signature verifies
		for _, s := range cert {
			if checker.Verify(s.From, s.SigBytes(), s.Sig) == nil {
				held = append(held, s)
			}
		}
		want := false
		for _, s := range cert {
			if s.Type != types.MsgCommit || s.Shard != 0 || s.Digest != d || s.From.Shard != 0 {
				continue
			}
			k := slot{s.View, s.Seq}
			if first[k] == nil {
				first[k] = make(map[types.NodeID]bool)
			}
			if _, dup := first[k][s.From]; dup {
				continue
			}
			ok := checker.Verify(s.From, s.SigBytes(), s.Sig) == nil
			first[k][s.From] = ok
			if ok {
				valid[k]++
			}
			want = want || valid[k] >= quorum
		}

		for _, h := range [][]types.Signed{nil, held} {
			kept, err := VerifyCert(checker, 0, d, cert, quorum, h)
			if got := err == nil; got != want {
				t.Fatalf("holding %d entries: VerifyCert accepted=%v, want %v for %+v", len(h), got, want, cert)
			}
			for _, s := range kept[len(h):] {
				if checker.Verify(s.From, s.SigBytes(), s.Sig) != nil {
					t.Fatalf("holding %d entries: VerifyCert kept %+v, whose signature does not verify", len(h), s)
				}
			}
		}
	})
}
