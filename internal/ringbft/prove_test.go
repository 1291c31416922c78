package ringbft

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// zeroSig reports whether cert holds an all-zero signature.
func zeroSig(cert []types.Signed) bool {
	return slices.ContainsFunc(cert, func(s types.Signed) bool {
		return len(s.Sig) > 0 && !slices.ContainsFunc(s.Sig, func(b byte) bool { return b != 0 })
	})
}

// badSignerRing submits the cst b over shards 0 and 1 while s0/r2 signs
// garbage on its Commits (valid MACs, zeroed signatures), holding every
// Forward into shard 1. It returns the held Forwards by sender and the
// index of an honest shard-0 replica whose Forward carries the garbage.
func badSignerRing(t *testing.T, c *cluster, b *types.Batch) (map[types.NodeID]*types.Message, int) {
	t.Helper()
	bad := types.ReplicaNode(0, 3)
	held := make(map[types.NodeID]*types.Message)
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgCommit && from == bad && len(m.Sig) > 0 {
			m.Sig = make([]byte, len(m.Sig))
		}
		if m.Type == types.MsgForward && to.Shard == 1 {
			held[from] = m
			return true
		}
		return false
	}
	c.submit(1, b)
	c.drop = nil
	for i := 0; i < c.n; i++ {
		if i != bad.Index && zeroSig(held[types.ReplicaNode(0, i)].Cert) {
			return held, i
		}
	}
	t.Fatal("setup: no honest replica's Forward carries the garbage signature")
	return nil, 0
}

// sentTo returns the last queued message of type typ addressed to to.
func sentTo(c *cluster, typ types.MsgType, to types.NodeID) *types.Message {
	var out *types.Message
	for _, q := range c.queue {
		if q.m.Type == typ && q.to == to {
			out = q.m
		}
	}
	return out
}

// TestRetransmitProvesCert: an honest replica whose Forward carried the
// garbage of a faulty voter retransmits it — on the transmit timer and in
// answer to a complainant that complains again — with its own certificate
// proven: no zeroed signature, accepted by VerifyCert, and the same Forward
// signature and ring tags, so no new Sign. A first complaint is answered as
// before, and a complainant gets at most one Forward per half
// RemoteTimeout.
func TestRetransmitProvesCert(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	held, i := badSignerRing(t, c, b)
	r := c.replicas[types.ReplicaNode(0, i)]
	first := held[r.Self]
	next := types.ReplicaNode(1, i)
	check := func(how string, m *types.Message) {
		t.Helper()
		if m == nil {
			t.Fatalf("%s: no Forward to %v", how, next)
		}
		if zeroSig(m.Cert) {
			t.Fatalf("%s: the certificate still holds the garbage signature", how)
		}
		if _, err := pbft.VerifyCert(r.Auth, 0, b.Digest(), m.Cert, c.cfg.NF(), nil); err != nil {
			t.Fatalf("%s: certificate rejected: %v", how, err)
		}
		if !bytes.Equal(m.Sig, first.Sig) || !bytes.Equal(m.MAC, first.MAC) {
			t.Fatalf("%s: the Forward was re-signed or re-tagged", how)
		}
	}

	c.queue = c.queue[:0]
	c.now = c.now.Add(c.cfg.TransmitTimeout + time.Millisecond)
	r.HandleTick(c.now)
	check("transmit timer", sentTo(c, types.MsgForward, next))

	// Complaints, from the Forward as it was first sent.
	r.csts[b.Digest()].forwardMsg = first
	complaint := &types.Message{
		Type: types.MsgRemoteView, From: next, Shard: 1, Digest: b.Digest(), Batch: b,
	}
	ring, err := c.kg.Ring(next)
	if err != nil {
		t.Fatal(err)
	}
	complaint.Sig = ring.Sign(complaint.AppendSigBytes(nil))
	c.queue = c.queue[:0]
	r.HandleMessage(complaint)
	if m := sentTo(c, types.MsgForward, next); m != nil {
		t.Fatal("a first complaint was answered with a Forward")
	}
	r.HandleMessage(complaint)
	if m := sentTo(c, types.MsgForward, next); m != nil {
		t.Fatal("a complaint repeated at once was answered with a Forward")
	}
	c.now = c.now.Add(c.cfg.RemoteTimeout)
	r.HandleMessage(complaint)
	check("repeated complaint", sentTo(c, types.MsgForward, next))
	c.queue = c.queue[:0]
	r.HandleMessage(complaint)
	if m := sentTo(c, types.MsgForward, next); m != nil {
		t.Fatal("a proven Forward was re-sent within half a RemoteTimeout")
	}
}

// TestWantProofComplains: a replica of the next shard whose candidates all
// hold garbage gets nothing from Justification; from then on its remote
// timer complains upstream, although its Forward quorum is complete, until
// a re-proven Forward from a counted sender proves the certificate.
func TestWantProofComplains(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	held, i := badSignerRing(t, c, b)
	r := c.replicas[types.ReplicaNode(1, 1)]
	for _, id := range types.SortedNodeKeys(held) {
		m := clone(held[id])
		if !zeroSig(m.Cert) {
			m.Cert = types.ZeroedCert(m.Cert)
		}
		r.HandleMessage(m)
	}
	cs := r.csts[d]
	if cs == nil || !r.accepted(len(cs.fwdFrom)) {
		t.Fatal("setup: the Forward quorum did not complete")
	}
	if cert, ready := r.justification(b); cert != nil || ready {
		t.Fatalf("Justification returned %v, ready %v, for candidates holding garbage", cert, ready)
	}
	complaints := func() int {
		c.queue = c.queue[:0]
		c.now = c.now.Add(c.cfg.RemoteTimeout + time.Millisecond)
		r.HandleTick(c.now)
		n := 0
		for _, q := range c.queue {
			if q.m.Type == types.MsgRemoteView && q.m.Digest == d {
				n++
			}
		}
		return n
	}
	for k := 0; k < 2; k++ {
		if n := complaints(); n != 1 {
			t.Fatalf("remote timeout %d: %d RemoteViews from a replica wanting a proof, want 1", k+1, n)
		}
	}

	p := c.replicas[types.ReplicaNode(0, i)]
	answer := clone(held[p.Self])
	answer.Cert = p.csts[d].cert.Prove(p.Auth)
	r.HandleMessage(answer)
	cert, _ := r.justification(b)
	if _, err := pbft.VerifyCert(r.Auth, 0, d, cert, c.cfg.NF(), nil); err != nil {
		t.Fatalf("the re-proven Forward did not prove the certificate: %v", err)
	}
	if n := complaints(); n != 0 {
		t.Fatalf("%d RemoteViews after the certificate proved, want 0", n)
	}
}

// TestHeldNewViewCarriesProof: shard 1 prepares a cst whose candidates all
// hold a faulty shard-0 voter's garbage, and its primary crashes. The new
// primary vouches for the batch but cannot prove it, so it holds its NewView
// until a re-proven Forward arrives, then sends it with the proof. A replica
// that never counted the Forward quorum — the restarted one, which lost its
// csts — receives that NewView, adopts it on the carried certificate, and
// accuses nobody.
func TestHeldNewViewCarriesProof(t *testing.T) {
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) {
		// The view change outlasts two remote timeouts, and shard 0's
		// transmit timer stays quiet: only complaints bring the proof.
		cfg.LocalTimeout = 2 * time.Second
		cfg.TransmitTimeout = time.Minute
	})
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	held, _ := badSignerRing(t, c, b)
	lagger, primary := types.ReplicaNode(1, 3), types.ReplicaNode(1, 1)

	// The batch prepares in shard 1 without committing there, on garbage
	// candidates only; the lagger never counts a Forward.
	c.drop = func(_, to types.NodeID, m *types.Message) bool {
		return (to == lagger && m.Type == types.MsgForward) || (to.Shard == 1 && m.Type == types.MsgCommit)
	}
	for _, id := range types.SortedNodeKeys(held) {
		m := clone(held[id])
		if !zeroSig(m.Cert) {
			m.Cert = types.ZeroedCert(m.Cert)
		}
		c.queue = append(c.queue, routed{id, types.ReplicaNode(1, id.Index), m})
	}
	c.pump()
	if cs := c.replicas[primary].csts[d]; cs == nil || !c.replicas[primary].accepted(len(cs.fwdFrom)) {
		t.Fatal("setup: the next primary did not count the Forward quorum")
	}

	var newViews []*types.Message
	c.drop = func(from, _ types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgNewView && from == primary {
			newViews = append(newViews, m)
		}
		return false
	}
	c.kill(types.ReplicaNode(1, 0))
	c.tick(c.cfg.LocalTimeout + time.Millisecond)
	if c.replicas[primary].PBFT.View() != 0 || len(newViews) != 0 {
		t.Fatalf("the new primary sent its NewView before it could prove the certificate (view %d, %d NewViews)", c.replicas[primary].PBFT.View(), len(newViews))
	}
	for k := 0; k < 40 && c.replicas[lagger].PBFT.View() == 0; k++ {
		c.tick(50 * time.Millisecond)
	}
	if len(newViews) == 0 {
		t.Fatal("the held NewView was never sent")
	}
	for _, p := range newViews[0].Prepared {
		if p.Digest == d {
			if _, err := pbft.VerifyCert(c.replicas[lagger].Auth, 0, d, p.Justification, c.cfg.NF(), nil); err != nil {
				t.Fatalf("the NewView re-proposes the cst without a proof: %v", err)
			}
		}
	}
	if v := c.replicas[lagger].PBFT.View(); v != 1 {
		t.Fatalf("the replica lacking the Forward quorum is in view %d, want 1", v)
	}
	for _, id := range types.SortedNodeKeys(c.replicas) {
		if recs := c.replicas[id].Evidence().Records(); len(recs) != 0 {
			t.Fatalf("%v accuses %v", id, recs[0].Accused)
		}
	}
}
