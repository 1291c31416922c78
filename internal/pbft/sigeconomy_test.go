package pbft

import (
	"bytes"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// newCountingHarness counts the Ed25519 work each replica's engine spends:
// what reaches the key ring after the verifier's memo.
func newCountingHarness(t *testing.T, n int) (*harness, []*crypto.CountingAuth) {
	t.Helper()
	counters := make([]*crypto.CountingAuth, n)
	h := newHarnessAuth(t, n, func(i int, a crypto.Authenticator) crypto.Authenticator {
		counters[i] = &crypto.CountingAuth{Authenticator: a}
		return counters[i]
	})
	return h, counters
}

// commitFrom builds replica from's Commit for (view, seq, d) addressed to
// replica to, authenticated the way the caller asks: signed, or MAC'd.
func (h *harness) commitFrom(from, to int, view types.View, seq types.SeqNum, d types.Digest, signed bool) *types.Message {
	e := h.engines[from]
	m := &types.Message{Type: types.MsgCommit, From: e.self, Shard: h.shard, View: view, Seq: seq, Digest: d}
	if signed {
		m.Sig = crypto.SignMessage(e.auth, m)
	} else {
		m.MAC = crypto.MACMessage(e.auth, h.engines[to].self, m)
	}
	return m
}

// TestSingleShardCommitSpendsNoSignatures: a batch that never leaves the
// shard commits at all four replicas on MAC vectors alone — not one Sign,
// not one Verify — and hands the host no certificate.
func TestSingleShardCommitSpendsNoSignatures(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	if _, err := h.engines[0].Propose(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i, c := range counters {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d batches, want 1", i, len(h.commits[i]))
		}
		if h.commits[i][0].cert != nil {
			t.Errorf("replica %d: single-shard commit carries a certificate", i)
		}
		if c.Signs.Load() != 0 || c.Verifies.Load() != 0 {
			t.Errorf("replica %d spent %d Sign / %d Verify on a single-shard batch, want 0/0", i, c.Signs.Load(), c.Verifies.Load())
		}
	}
}

// TestCrossShardCommitSignsOnce: a cross-shard batch costs each replica
// exactly one signature — including the straggler replies that fire in the
// fault-free case, which re-send the stored one — and no signature is
// verified twice; the certificate is nf signed votes that pass VerifyCert.
func TestCrossShardCommitSignsOnce(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i, c := range counters {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d batches, want 1", i, len(h.commits[i]))
		}
		if c.Signs.Load() != 1 {
			t.Errorf("replica %d signed %d times for one cross-shard batch, want 1", i, c.Signs.Load())
		}
		if c.Verifies.Load() > int64(h.n-1) {
			t.Errorf("replica %d verified %d signatures, want <= %d (one per peer)", i, c.Verifies.Load(), h.n-1)
		}
	}
	for i := range counters { // after the counts: VerifyCert below spends verifications
		cert := h.commits[i][0].cert
		if len(cert) != h.engines[i].NF() {
			t.Fatalf("replica %d certificate has %d entries, want %d", i, len(cert), h.engines[i].NF())
		}
		for _, s := range cert {
			if len(s.Sig) == 0 {
				t.Fatalf("replica %d certificate holds an unsigned vote from %v", i, s.From)
			}
		}
		if err := VerifyCert(h.engines[(i+1)%h.n].verifier, 0, b.Digest(), cert, h.engines[i].NF()); err != nil {
			t.Errorf("replica %d certificate rejected: %v", i, err)
		}
	}
}

// isolateCommits lets replica victim see the three-phase traffic of one
// proposal up to and including Prepare, but none of its peers' Commits: it
// ends prepared with only its own commit vote.
func isolateCommits(h *harness, victim int) {
	h.drop = func(_, to types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgCommit && to == h.engines[victim].self
	}
}

// TestMACCommitNeverCertifies: for a cross-shard entry a MAC-authenticated
// Commit — valid MAC, honest-looking tuple — counts toward neither the
// quorum nor the certificate; a signed Commit from the same sender later
// replaces it.
func TestMACCommitNeverCertifies(t *testing.T) {
	h := newHarness(t, 4)
	isolateCommits(h, 1)
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	d, victim := b.Digest(), h.engines[1]
	if len(h.commits[1]) != 0 {
		t.Fatal("isolated replica committed without peer votes")
	}
	// Own signed vote + two MAC'd votes: three authentic votes, one signed.
	victim.OnMessage(h.commitFrom(2, 1, 0, 1, d, false))
	victim.OnMessage(h.commitFrom(3, 1, 0, 1, d, false))
	if len(h.commits[1]) != 0 {
		t.Fatal("MAC-only Commits completed a cross-shard quorum")
	}
	// One signed peer vote: two signed + one MAC'd still is not nf signed.
	victim.OnMessage(h.commitFrom(0, 1, 0, 1, d, true))
	if len(h.commits[1]) != 0 {
		t.Fatal("cross-shard entry committed with only two signed votes")
	}
	// Replica 2's signed Commit replaces its MAC'd one and completes nf.
	victim.OnMessage(h.commitFrom(2, 1, 0, 1, d, true))
	if len(h.commits[1]) != 1 {
		t.Fatal("nf signed Commits did not commit the cross-shard entry")
	}
	cert := h.commits[1][0].cert
	if len(cert) != 3 {
		t.Fatalf("certificate has %d entries, want 3", len(cert))
	}
	for _, s := range cert {
		if s.From == h.engines[3].self || len(s.Sig) == 0 {
			t.Fatalf("certificate includes the MAC-only vote of %v", s.From)
		}
	}
	if err := VerifyCert(h.engines[3].verifier, 0, d, cert, 3); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestForgedMACCommitDropped: a single-shard Commit whose MAC does not
// verify — computed for another recipient, or garbage — is no vote.
func TestForgedMACCommitDropped(t *testing.T) {
	h := newHarness(t, 4)
	isolateCommits(h, 1)
	b := batchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	d, victim := b.Digest(), h.engines[1]
	victim.OnMessage(h.commitFrom(0, 1, 0, 1, d, false))
	wrongPeer := h.commitFrom(2, 3, 0, 1, d, false) // MAC keyed for replica 3
	victim.OnMessage(wrongPeer)
	garbage := h.commitFrom(3, 1, 0, 1, d, false)
	garbage.MAC[0] ^= 1
	victim.OnMessage(garbage)
	bare := &types.Message{Type: types.MsgCommit, From: h.engines[3].self, Shard: 0, Seq: 1, Digest: d}
	victim.OnMessage(bare) // no authenticator at all
	if len(h.commits[1]) != 0 {
		t.Fatal("forged Commits completed the quorum")
	}
	victim.OnMessage(h.commitFrom(2, 1, 0, 1, d, false))
	if len(h.commits[1]) != 1 {
		t.Fatal("valid MAC'd Commit did not complete the quorum")
	}
}

// TestReplyCommitReusesSignature: within a view the straggler reply is
// byte-identical to the Commit the replica broadcast (same signature, no
// second Sign); after a view change it is re-authenticated for the new view.
func TestReplyCommitReusesSignature(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	var sent []routed // every Commit put on the wire, in order
	straggler := h.engines[3].self
	cut := true
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgCommit {
			sent = append(sent, routed{to, m})
		}
		return cut && (from == straggler || to == straggler)
	}
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	if len(h.commits[0]) != 1 || len(h.commits[3]) != 0 {
		t.Fatal("setup: replicas 0-2 should have committed without the straggler")
	}
	// Same view: the reply to the straggler is the broadcast Commit again.
	e0, before := h.engines[0], counters[0].Signs.Load()
	var original *types.Message
	for _, r := range sent {
		if r.m.From == e0.self && r.to == straggler {
			original = r.m
		}
	}
	sent = nil
	e0.replyCommit(straggler, 1, e0.log[1])
	if len(sent) != 1 || original == nil {
		t.Fatalf("expected one reply and a recorded original, got %d replies", len(sent))
	}
	reply := sent[0].m
	if counters[0].Signs.Load() != before {
		t.Fatal("same-view reply signed again")
	}
	if reply.View != original.View || reply.Seq != original.Seq || reply.Digest != original.Digest ||
		!bytes.Equal(reply.Sig, original.Sig) || len(reply.MAC) != 0 {
		t.Fatalf("same-view reply differs from the original Commit:\n%+v\n%+v", reply, original)
	}

	// Heal, change view: the straggler re-runs the phases in view 1 and the
	// committed replicas answer with Commits signed for view 1.
	cut = false
	sent = nil
	for i := 0; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	if len(h.commits[3]) != 1 || h.commits[3][0].digest != b.Digest() {
		t.Fatal("straggler did not commit after the view change")
	}
	replies := 0
	for _, r := range sent {
		if r.to != straggler || r.m.From == straggler {
			continue
		}
		replies++
		if r.m.View != 1 || bytes.Equal(r.m.Sig, original.Sig) {
			t.Fatalf("reply after the view change was not re-signed for view 1: %+v", r.m)
		}
		if err := crypto.VerifyMessageSig(h.engines[3].auth, r.m); err != nil {
			t.Fatalf("re-signed reply does not verify: %v", err)
		}
	}
	if replies < h.engines[3].NF()-1 {
		t.Fatalf("straggler got %d catch-up Commits, want >= %d", replies, h.engines[3].NF()-1)
	}
	if err := VerifyCert(h.engines[0].verifier, 0, b.Digest(), h.commits[3][0].cert, 3); err != nil {
		t.Fatalf("straggler's view-1 certificate rejected: %v", err)
	}
}
