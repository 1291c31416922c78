package pbft

import (
	"bytes"
	"slices"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// newCountingHarness counts the Ed25519 work each replica's engine spends.
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
// replica to, authenticated the way the caller asks: signed with the MAC
// beside the signature (a cross-shard Commit as the engine sends it), or
// MAC'd only.
func (h *harness) commitFrom(from, to int, view types.View, seq types.SeqNum, d types.Digest, signed bool) *types.Message {
	e := h.engines[from]
	m := &types.Message{Type: types.MsgCommit, From: e.self, Shard: h.shard, View: view, Seq: seq, Digest: d}
	if signed {
		m.Sig = crypto.SignMessage(e.auth, m)
	}
	m.MAC = crypto.MACMessage(e.auth, h.engines[to].self, m)
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
// fault-free case, which re-send the stored one — and no verification: every
// peer Commit counts on its MAC, and its signature is held unverified. The
// certificate is nf signed votes that pass VerifyCert, the last peer's
// Commit adds its signature after the decision, and proving the certificate
// changes nothing on a fault-free run.
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
		if c.Verifies.Load() != 0 {
			t.Errorf("replica %d verified %d signatures deciding a cross-shard batch, want 0", i, c.Verifies.Load())
		}
	}
	for i := range counters { // after the counts: the checks below spend verifications
		rec := h.commits[i][0]
		if len(rec.cert) != h.engines[i].NF() {
			t.Fatalf("replica %d certificate has %d entries, want %d", i, len(rec.cert), h.engines[i].NF())
		}
		for _, s := range rec.cert {
			if len(s.Sig) == 0 {
				t.Fatalf("replica %d certificate holds an unsigned vote from %v", i, s.From)
			}
		}
		if len(rec.held.held) != h.n {
			t.Errorf("replica %d holds %d Commit signatures, want all %d", i, len(rec.held.held), h.n)
		}
		if _, err := VerifyCert(h.engines[(i+1)%h.n].auth, 0, b.Digest(), rec.cert, h.engines[i].NF(), nil); err != nil {
			t.Errorf("replica %d certificate rejected: %v", i, err)
		}
		if proof := rec.held.Prove(h.engines[i].auth); !slices.EqualFunc(proof, rec.cert, sameSigned) {
			t.Errorf("replica %d: the proof of a fault-free certificate differs from it", i)
		}
	}
}

func sameSigned(a, b types.Signed) bool {
	return a.From == b.From && a.View == b.View && a.Seq == b.Seq && a.Digest == b.Digest && bytes.Equal(a.Sig, b.Sig)
}

// isolateCommits lets replica victim see the three-phase traffic of one
// proposal up to and including Prepare, but none of its peers' Commits: it
// ends prepared with only its own commit vote.
func isolateCommits(h *harness, victim int) {
	h.drop = func(_, to types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgCommit && to == h.engines[victim].self
	}
}

// TestMACCommitNeverCertifies: for a cross-shard entry a Commit carrying
// only a MAC — valid MAC, honest-looking tuple — counts toward neither the
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
	if _, err := VerifyCert(h.engines[3].auth, 0, d, cert, 3, nil); err != nil {
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

// TestBadSignatureCommitDropped: a cross-shard Commit with a valid MAC and a
// garbage signature counts toward the decision, which costs no Verify, but
// it is dropped from every proof: with only nf-1 valid signatures held, the
// certificate does not prove.
func TestBadSignatureCommitDropped(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	isolateCommits(h, 1)
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	d, victim := b.Digest(), h.engines[1]
	verifies := counters[1].Verifies.Load()
	victim.OnMessage(h.commitFrom(0, 1, 0, 1, d, true))
	forged := h.commitFrom(2, 1, 0, 1, d, true)
	forged.Sig[0] ^= 1
	if err := crypto.VerifyMessageMAC(victim.auth, forged); err != nil {
		t.Fatalf("setup: the forged Commit's MAC should verify: %v", err)
	}
	victim.OnMessage(forged)
	if len(h.commits[1]) != 1 {
		t.Fatal("nf MAC-authenticated signed Commits did not commit the cross-shard entry")
	}
	if n := counters[1].Verifies.Load() - verifies; n != 0 {
		t.Fatalf("the decision cost %d Verify, want 0", n)
	}
	rec := h.commits[1][0]
	if _, err := VerifyCert(h.engines[3].auth, 0, d, rec.cert, 3, nil); err == nil {
		t.Fatal("setup: the unproven certificate should hold the garbage signature")
	}
	if proof := rec.held.Prove(victim.auth); proof != nil {
		t.Fatalf("a certificate with %d valid signatures proved: %v", h.engines[1].NF()-1, proof)
	}
}

// TestLateCommitProves: the garbage Commit arrives first and completes the
// decision; a late honest Commit, whose signature the decided entry keeps,
// lets Prove succeed without the garbage. A failed Prove is not retried,
// and costs nothing, until another signature is held.
func TestLateCommitProves(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	isolateCommits(h, 1)
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	d, victim := b.Digest(), h.engines[1]
	forged := h.commitFrom(2, 1, 0, 1, d, true)
	forged.Sig = make([]byte, len(forged.Sig))
	victim.OnMessage(forged)
	victim.OnMessage(h.commitFrom(0, 1, 0, 1, d, true))
	if len(h.commits[1]) != 1 {
		t.Fatal("setup: replica 1 did not commit")
	}
	held := h.commits[1][0].held
	if held.Prove(victim.auth) != nil {
		t.Fatal("setup: the certificate proved before the late Commit")
	}
	verifies := counters[1].Verifies.Load()
	if held.Prove(victim.auth) != nil || counters[1].Verifies.Load() != verifies {
		t.Fatal("a failed Prove was retried with no new signature held")
	}
	victim.OnMessage(h.commitFrom(3, 1, 0, 1, d, true))
	proof := held.Prove(victim.auth)
	if len(proof) != 3 {
		t.Fatalf("the late Commit did not let the certificate prove: %v", proof)
	}
	for i, want := range []int{0, 1, 3} {
		if proof[i].From != h.engines[want].self {
			t.Fatalf("proof[%d] is from %v, want %v (canonical order, without the garbage)", i, proof[i].From, h.engines[want].self)
		}
	}
	if _, err := VerifyCert(h.engines[2].auth, 0, d, proof, 3, nil); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
}

// TestDecidedCommitCostsAMAC: a cross-shard Commit reaching a replica that
// has already committed its entry is answered on its MAC alone — no Ed25519
// verification — at most once per (peer, view), and not at all when the MAC
// is bad. The reply carries the stored signature with the recipient's MAC.
func TestDecidedCommitCostsAMAC(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	b := crossBatchOf(1)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	e1, peer := h.engines[1], h.engines[2]
	if len(h.commits[1]) != 1 {
		t.Fatal("setup: replica 1 did not commit")
	}
	e1.log[1].helped = nil // forget the fault-free straggler replies
	var replies []routed
	h.drop = func(_, to types.NodeID, m *types.Message) bool {
		replies = append(replies, routed{to, m})
		return true
	}
	verifies := counters[1].Verifies.Load()

	late := h.commitFrom(2, 1, 0, 1, b.Digest(), true)
	badMAC := *late
	badMAC.MAC = append([]byte(nil), late.MAC...)
	badMAC.MAC[0] ^= 1
	e1.OnMessage(&badMAC)
	if len(replies) != 0 {
		t.Fatalf("a late Commit with a bad MAC got %d replies", len(replies))
	}
	e1.OnMessage(late)
	e1.OnMessage(late)
	if len(replies) != 1 || replies[0].to != peer.self {
		t.Fatalf("two late Commits got %d replies, want one to %v", len(replies), peer.self)
	}
	if n := counters[1].Verifies.Load() - verifies; n != 0 {
		t.Fatalf("late Commits cost %d Verify, want 0", n)
	}
	reply := replies[0].m
	if !bytes.Equal(reply.Sig, e1.log[1].commits[e1.self].sig) {
		t.Fatal("the reply does not carry the stored signature")
	}
	if err := crypto.VerifyMessageMAC(peer.auth, reply); err != nil {
		t.Fatalf("the reply's MAC does not verify at its recipient: %v", err)
	}
}

// TestReplyCommitReusesSignature: within a view the straggler reply is
// byte-identical to the Commit the replica broadcast to that peer (same
// signature, no second Sign, the recipient's MAC beside it); after a view
// change it is re-authenticated for the new view.
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
		!bytes.Equal(reply.Sig, original.Sig) || !bytes.Equal(reply.MAC, original.MAC) {
		t.Fatalf("same-view reply differs from the original Commit:\n%+v\n%+v", reply, original)
	}
	if err := crypto.VerifyMessageMAC(h.engines[3].auth, reply); err != nil {
		t.Fatalf("same-view reply carries no MAC for its recipient: %v", err)
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
	if _, err := VerifyCert(h.engines[0].auth, 0, b.Digest(), h.commits[3][0].cert, 3, nil); err != nil {
		t.Fatalf("straggler's view-1 certificate rejected: %v", err)
	}
}
