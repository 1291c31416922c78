package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"ringbft/internal/types"
)

// TestMACMatchesReferenceHMAC pins the cached-key/pooled-state fast path to
// the textbook construction: the tag must equal stdlib HMAC-SHA256 over the
// derived pairwise key, truncated to MACSize — for registered peers (cached
// key schedule) and unregistered ones (throwaway schedule) alike.
func TestMACMatchesReferenceHMAC(t *testing.T) {
	ra, _, a, b := twoRings(t)
	client := types.ClientNode(7) // never registered
	for _, peer := range []types.NodeID{b, client} {
		for _, size := range []int{0, 1, 63, 64, 65, 128, 4096} {
			msg := make([]byte, size)
			for i := range msg {
				msg[i] = byte(i * 7)
			}
			ref := hmac.New(sha256.New, ra.pairKey(a, peer))
			ref.Write(msg)
			want := ref.Sum(nil)[:MACSize]
			for round := 0; round < 2; round++ { // round 2 exercises the cache
				got := ra.MAC(peer, msg)
				if !hmac.Equal(got, want) {
					t.Fatalf("peer %v size %d round %d: fast-path MAC diverges from reference HMAC", peer, size, round)
				}
			}
		}
	}
	// Unregistered peers must not grow the cache.
	if _, cached := ra.macStates.Load(client); cached {
		t.Fatal("client key schedule cached: unbounded growth on long-lived replicas")
	}
	if _, cached := ra.macStates.Load(b); !cached {
		t.Fatal("registered peer key schedule not cached")
	}
}

// TestMACTamperTable flips bytes in every region of message and tag and
// asserts the cached-key, pooled-state verifier rejects each one.
func TestMACTamperTable(t *testing.T) {
	ra, rb, a, b := twoRings(t)
	msg := []byte("forward the batch with the commit certificate A")
	tag := ra.MAC(b, msg)
	if err := rb.VerifyMAC(a, msg, tag); err != nil {
		t.Fatalf("valid MAC rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(msg, tag []byte) ([]byte, []byte)
	}{
		{"flip first msg byte", func(m, g []byte) ([]byte, []byte) { m[0] ^= 1; return m, g }},
		{"flip middle msg byte", func(m, g []byte) ([]byte, []byte) { m[len(m)/2] ^= 0x80; return m, g }},
		{"flip last msg byte", func(m, g []byte) ([]byte, []byte) { m[len(m)-1] ^= 1; return m, g }},
		{"truncate msg", func(m, g []byte) ([]byte, []byte) { return m[:len(m)-1], g }},
		{"extend msg", func(m, g []byte) ([]byte, []byte) { return append(m, 0), g }},
		{"flip first tag byte", func(m, g []byte) ([]byte, []byte) { g[0] ^= 1; return m, g }},
		{"flip last tag byte", func(m, g []byte) ([]byte, []byte) { g[len(g)-1] ^= 1; return m, g }},
		{"truncate tag", func(m, g []byte) ([]byte, []byte) { return m, g[:MACSize-1] }},
		{"empty tag", func(m, g []byte) ([]byte, []byte) { return m, nil }},
		{"wrong peer key", func(m, g []byte) ([]byte, []byte) { return m, ra.MAC(types.ReplicaNode(0, 0), m) }},
	}
	for _, tc := range cases {
		m := append([]byte(nil), msg...)
		g := append([]byte(nil), tag...)
		m2, g2 := tc.mutate(m, g)
		if err := rb.VerifyMAC(a, m2, g2); err == nil {
			t.Errorf("%s: tampered MAC accepted", tc.name)
		}
	}
}

// TestMACPooledStateConcurrency hammers one ring from many goroutines so a
// leaked or cross-contaminated pooled SHA-256 state would surface (also
// meaningful under -race).
func TestMACPooledStateConcurrency(t *testing.T) {
	ra, rb, a, b := twoRings(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := []byte(fmt.Sprintf("goroutine %d message %d", g, i))
				if err := rb.VerifyMAC(a, msg, ra.MAC(b, msg)); err != nil {
					errs <- fmt.Errorf("valid MAC rejected under concurrency: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendMACAppends checks the zero-alloc variant extends dst in place.
func TestAppendMACAppends(t *testing.T) {
	ra, _, _, b := twoRings(t)
	msg := []byte("append")
	dst := []byte{0xAA, 0xBB}
	out := ra.AppendMAC(dst, b, msg)
	if len(out) != 2+MACSize || out[0] != 0xAA || out[1] != 0xBB {
		t.Fatalf("AppendMAC mangled dst prefix: %x", out)
	}
	if !hmac.Equal(out[2:], ra.MAC(b, msg)) {
		t.Fatal("AppendMAC tag differs from MAC")
	}
}

// TestKeygenRingSharesPubs: rings share one public-key map (the O(n²) copy
// fix) and the keygen seals against late registration.
func TestKeygenRingSharesPubs(t *testing.T) {
	kg := NewKeygen(5)
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	kg.Register(a)
	kg.Register(b)
	ra, _ := kg.Ring(a)
	rb, _ := kg.Ring(b)
	// Same backing map, not copies.
	if fmt.Sprintf("%p", ra.pubs) != fmt.Sprintf("%p", rb.pubs) {
		t.Fatal("Ring still copies the public-key map per ring (O(n²) memory)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Ring did not panic; shared map would race")
		}
	}()
	kg.Register(types.ReplicaNode(0, 2))
}

// TestVerifyResentComparesOnlyEqualBytes: a copy whose sender, canonical
// bytes and signature equal a held, verified message is compared, not
// verified; any copy that differs in one of them reaches the real check and,
// if its signature is bad, is rejected — the property that makes comparing
// sound.
func TestVerifyResentComparesOnlyEqualBytes(t *testing.T) {
	ra, rb, a, b := twoRings(t)
	ca := &CountingAuth{Authenticator: ra}
	held := &types.Message{Type: types.MsgAHLVote, From: b, Shard: 1, View: 2, Seq: 3, Digest: types.Digest{4}, Decision: true}
	held.Sig = SignMessage(rb, held)
	if err := VerifyResent(ca, held, nil); err != nil || ca.Verifies.Load() != 1 {
		t.Fatalf("first copy: err=%v real checks=%d, want nil/1", err, ca.Verifies.Load())
	}
	resigned := *held
	resigned.Seq = 9
	resigned.Sig = SignMessage(rb, &resigned)
	cases := []struct {
		name   string
		mutate func(m *types.Message)
		ok     bool
	}{
		{"identical copy", func(*types.Message) {}, true},
		{"copy with another body", func(m *types.Message) { m.Decision = false; m.Batch = &types.Batch{} }, true},
		{"other sender", func(m *types.Message) { m.From = a }, false},
		{"other type", func(m *types.Message) { m.Type = types.MsgSharperCommit }, false},
		{"other shard", func(m *types.Message) { m.Shard = 0 }, false},
		{"other view", func(m *types.Message) { m.View++ }, false},
		{"other seq", func(m *types.Message) { m.Seq++ }, false},
		{"other digest", func(m *types.Message) { m.Digest[31] ^= 1 }, false},
		{"flipped first sig byte", func(m *types.Message) { m.Sig = flip(m.Sig, 0) }, false},
		{"flipped last sig byte", func(m *types.Message) { m.Sig = flip(m.Sig, len(m.Sig)-1) }, false},
		{"truncated sig", func(m *types.Message) { m.Sig = m.Sig[:len(m.Sig)-1] }, false},
		{"empty sig", func(m *types.Message) { m.Sig = nil }, false},
		{"another validly signed tuple", func(m *types.Message) { *m = resigned }, true},
	}
	for _, tc := range cases {
		m := *held
		tc.mutate(&m)
		// The signed fields and the signature decide; Decision and Batch are
		// outside the canonical bytes.
		compared := m.Type == held.Type && m.From == held.From && m.Shard == held.Shard &&
			m.View == held.View && m.Seq == held.Seq && m.Digest == held.Digest && string(m.Sig) == string(held.Sig)
		before := ca.Verifies.Load()
		err := VerifyResent(ca, &m, held)
		if tc.ok != (err == nil) {
			t.Errorf("%s: accepted=%v, want %v", tc.name, err == nil, tc.ok)
		}
		want := int64(1)
		if compared {
			want = 0
		}
		if got := ca.Verifies.Load() - before; got != want {
			t.Errorf("%s: %d real checks, want %d", tc.name, got, want)
		}
	}
}

// TestVerifyQuorumComparesHeld: entries equal to held ones count without a
// real check; an entry with the same tuple but other signature bytes is
// checked and, if bad, not counted.
func TestVerifyQuorumComparesHeld(t *testing.T) {
	kg := NewKeygen(21)
	ids := []types.NodeID{types.ReplicaNode(0, 0), types.ReplicaNode(0, 1), types.ReplicaNode(0, 2), types.ReplicaNode(0, 3)}
	for _, id := range ids {
		kg.Register(id)
	}
	cert := make([]types.Signed, len(ids))
	for i, id := range ids {
		ring, err := kg.Ring(id)
		if err != nil {
			t.Fatal(err)
		}
		cert[i] = types.Signed{From: id, Type: types.MsgCommit, View: 1, Seq: 7, Digest: types.Digest{9}}
		cert[i].Sig = ring.Sign(cert[i].SigBytes())
	}
	ring, _ := kg.Ring(ids[0])
	ca := &CountingAuth{Authenticator: ring}
	ptrs := func(c []types.Signed) []*types.Signed {
		out := make([]*types.Signed, len(c))
		for i := range c {
			out[i] = &c[i]
		}
		return out
	}
	got, held := VerifyQuorum(ca, ptrs(cert), 4, cert[:2:2])
	if got != 4 || ca.Verifies.Load() != 2 || len(held) != 4 {
		t.Fatalf("two held of four: %d valid with %d real checks, %d held, want 4 with 2, 4 held", got, ca.Verifies.Load(), len(held))
	}
	tampered := append([]types.Signed(nil), cert...)
	tampered[1].Sig = flip(tampered[1].Sig, 7)
	if got, held = VerifyQuorum(ca, ptrs(tampered), 4, held); got != 3 || ca.Verifies.Load() != 3 || len(held) != 4 {
		t.Fatalf("tampered held slot: %d valid with %d real checks in all, %d held, want 3 with 3, 4 held", got, ca.Verifies.Load(), len(held))
	}
}

// flip returns a copy of b with bit 0 of byte i flipped.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}
