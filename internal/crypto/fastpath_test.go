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

func signedCommit(t testing.TB, kg *Keygen, from types.NodeID, shard types.ShardID, v types.View, seq types.SeqNum, d types.Digest) types.Signed {
	t.Helper()
	ring, err := kg.Ring(from)
	if err != nil {
		t.Fatal(err)
	}
	s := types.Signed{From: from, Type: types.MsgCommit, Shard: shard, View: v, Seq: seq, Digest: d}
	s.Sig = ring.Sign(s.SigBytes())
	return s
}

func benchVerifierSetup(t testing.TB, n int) (*Keygen, *Verifier, []types.Signed, types.Digest) {
	kg := NewKeygen(21)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.ReplicaNode(0, i)
		kg.Register(ids[i])
	}
	d := types.Digest{9, 9, 9}
	cert := make([]types.Signed, n)
	for i, id := range ids {
		cert[i] = signedCommit(t, kg, id, 0, 1, 7, d)
	}
	ring, err := kg.Ring(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	return kg, NewVerifier(ring), cert, d
}

// memoFixture returns a verifier over a counting authenticator plus one
// valid (signer, msg, sig) triple and a second registered signer.
func memoFixture(t testing.TB) (*Verifier, *CountingAuth, types.NodeID, types.NodeID, []byte, []byte) {
	kg, _, cert, _ := benchVerifierSetup(t, 4)
	ring, err := kg.Ring(cert[0].From)
	if err != nil {
		t.Fatal(err)
	}
	ca := &CountingAuth{Authenticator: ring}
	return NewVerifier(ca), ca, cert[1].From, cert[2].From, cert[1].SigBytes(), cert[1].Sig
}

// TestMemoKeyCoversEveryInput: after a triple verified, changing any one of
// signer, message bytes or signature must miss the memo, reach the real
// check and be rejected by it — the property that makes the memo sound.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	v, ca, signer, other, msg, sig := memoFixture(t)
	if err := v.Verify(signer, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := v.Verify(signer, msg, sig); err != nil || v.MemoHits() != 1 || ca.Verifies.Load() != 1 {
		t.Fatalf("re-presented triple: err=%v hits=%d real checks=%d, want nil/1/1", err, v.MemoHits(), ca.Verifies.Load())
	}
	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 1
		return c
	}
	cases := []struct {
		name   string
		signer types.NodeID
		msg    []byte
		sig    []byte
	}{
		{"other signer", other, msg, sig},
		{"unknown signer", types.ReplicaNode(5, 5), msg, sig},
		{"flipped first msg byte", signer, flip(msg, 0), sig},
		{"flipped last msg byte", signer, flip(msg, len(msg)-1), sig},
		{"truncated msg", signer, msg[:len(msg)-1], sig},
		{"msg byte moved into sig", signer, msg[:len(msg)-1], append([]byte{msg[len(msg)-1]}, sig...)},
		{"flipped first sig byte", signer, msg, flip(sig, 0)},
		{"flipped last sig byte", signer, msg, flip(sig, len(sig)-1)},
		{"truncated sig", signer, msg, sig[:len(sig)-1]},
		{"empty sig", signer, msg, nil},
	}
	for _, tc := range cases {
		for round := 0; round < 2; round++ { // round 2: the failure was not stored
			before := ca.Verifies.Load()
			if err := v.Verify(tc.signer, tc.msg, tc.sig); err == nil {
				t.Errorf("%s round %d: accepted", tc.name, round)
			}
			if ca.Verifies.Load() != before+1 {
				t.Errorf("%s round %d: did not reach the real check", tc.name, round)
			}
		}
	}
	if v.MemoHits() != 1 {
		t.Fatalf("a tampered triple hit the memo (hits=%d)", v.MemoHits())
	}
	if err := v.Verify(signer, msg, sig); err != nil || v.MemoHits() != 2 {
		t.Fatalf("original triple lost after tamper attempts: err=%v hits=%d", err, v.MemoHits())
	}
}

// TestMemoBoundedFIFO: the memo never holds more than its capacity, evicts
// the oldest success first, and capacity 0 stores nothing.
func TestMemoBoundedFIFO(t *testing.T) {
	kg, _, cert, _ := benchVerifierSetup(t, 4)
	ring, _ := kg.Ring(cert[0].From)
	ca := &CountingAuth{Authenticator: ring}
	v := NewVerifier(ca)
	v.SetMemoSize(2)
	check := func(i int) {
		t.Helper()
		if err := v.Verify(cert[i].From, cert[i].SigBytes(), cert[i].Sig); err != nil {
			t.Fatalf("valid signature %d rejected: %v", i, err)
		}
	}
	check(0)
	check(1)
	check(0)
	check(1)
	if ca.Verifies.Load() != 2 || v.MemoHits() != 2 {
		t.Fatalf("within capacity: real checks=%d hits=%d, want 2/2", ca.Verifies.Load(), v.MemoHits())
	}
	check(2) // evicts 0, the oldest
	if len(v.memo) != 2 || len(v.fifo) != 2 {
		t.Fatalf("memo holds %d entries (ring %d), capacity 2", len(v.memo), len(v.fifo))
	}
	check(1)
	check(2)
	if ca.Verifies.Load() != 3 {
		t.Fatalf("eviction removed the wrong entry: real checks=%d, want 3", ca.Verifies.Load())
	}
	check(0) // was evicted: verified for real again, evicting 1
	check(1)
	if ca.Verifies.Load() != 5 {
		t.Fatalf("FIFO order not respected: real checks=%d, want 5", ca.Verifies.Load())
	}
	v.SetMemoSize(0)
	hits := v.MemoHits()
	check(2)
	check(2)
	if v.MemoHits() != hits || v.memo != nil {
		t.Fatal("disabled memo stored an entry")
	}
}

// TestMemoBypassedUnderNopAuth: with free verification the memo would only
// add hashing, so it is off and nothing is ever allocated.
func TestMemoBypassedUnderNopAuth(t *testing.T) {
	v := NewVerifier(NopAuth{})
	for i := 0; i < 3; i++ {
		if err := v.Verify(types.ReplicaNode(0, 1), []byte("m"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if v.MemoHits() != 0 || v.memo != nil {
		t.Fatalf("NopAuth verifier used the memo (hits=%d)", v.MemoHits())
	}
}

// TestMemoLazyAllocation: construction allocates no memo storage — a
// replica that never verifies a signature pays nothing for the capacity.
func TestMemoLazyAllocation(t *testing.T) {
	v, _, signer, _, msg, sig := memoFixture(t)
	if v.memo != nil || v.fifo != nil {
		t.Fatal("memo storage allocated at construction")
	}
	bad := append([]byte(nil), sig...)
	bad[3] ^= 1
	if v.Verify(signer, msg, bad) == nil || v.memo != nil {
		t.Fatal("a failed check allocated or populated the memo")
	}
	if err := v.Verify(signer, msg, sig); err != nil || len(v.memo) != 1 {
		t.Fatalf("first success not stored: err=%v entries=%d", err, len(v.memo))
	}
}

// TestMemoConcurrentHammer drives one small memo from many goroutines with
// a mix of valid and tampered triples (constant eviction pressure): every
// decision must match the bare authenticator. Meaningful under -race.
func TestMemoConcurrentHammer(t *testing.T) {
	kg, _, cert, _ := benchVerifierSetup(t, 7)
	ring, _ := kg.Ring(cert[0].From)
	v := NewVerifier(ring)
	v.SetMemoSize(3)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				e := cert[(g+i)%len(cert)]
				sig := e.Sig
				tampered := (g+i)%3 == 0
				if tampered {
					sig = append([]byte(nil), sig...)
					sig[i%len(sig)] ^= 0x40
				}
				if err := v.Verify(e.From, e.SigBytes(), sig); (err == nil) == tampered {
					errs <- fmt.Errorf("goroutine %d iter %d: tampered=%v err=%v", g, i, tampered, err)
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
	if len(v.memo) > 3 {
		t.Fatalf("memo grew to %d entries past capacity 3", len(v.memo))
	}
}
