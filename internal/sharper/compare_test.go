package sharper

import (
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// TestCrossVoteComparesHeldCopy is the tamper table of onCrossVote's compare
// site: a retransmitted vote whose bytes equal the vote counted from the
// same sender costs no Ed25519 check; one whose signature or signed tuple
// differs is verified and, if bad, rejected and not counted. The answer to
// a retransmission is the signed votes this replica first sent, not fresh
// signatures.
func TestCrossVoteComparesHeldCopy(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 5)
	d := b.Digest()
	r0, peer := types.ReplicaNode(0, 0), types.ReplicaNode(1, 1)
	var held *types.Message
	c.drop = func(to types.NodeID, m *types.Message) bool {
		if to == r0 && m.From == peer && m.Type == types.MsgSharperPrepare {
			held = m
		}
		return false
	}
	c.submit(1, b)
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	if held == nil {
		t.Fatal("run delivered no prepare vote from the peer")
	}
	c.drop = nil
	r := c.replicas[r0]
	counter := &crypto.CountingAuth{Authenticator: r.Auth}
	r.Auth = counter
	gs := r.global[d]

	flipped := *held
	flipped.Sig = append([]byte(nil), held.Sig...)
	flipped.Sig[9] ^= 1
	otherSeq := *held
	otherSeq.Seq++
	forged := *held
	forged.From = types.ReplicaNode(1, 3) // the peer's signature under another name
	delete(gs.prepares, forged.From)
	for _, tc := range []struct {
		name    string
		m       *types.Message
		checks  int64
		resent  bool
		counted int
	}{
		{"held sender, signature flipped", &flipped, 1, false, 7},
		{"held sender, signed tuple changed", &otherSeq, 1, false, 7},
		{"new sender, bad signature", &forged, 1, false, 7},
		{"held copy", held, 0, true, 7},
	} {
		c.queue = nil
		before := counter.Verifies.Load()
		r.HandleMessage(tc.m)
		if got := counter.Verifies.Load() - before; got != tc.checks {
			t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
		}
		// A retransmitted vote from a counted sender is answered once with
		// this replica's own votes.
		if resent := len(c.queue) > 0; resent != tc.resent {
			t.Errorf("%s: answered = %v, want %v", tc.name, resent, tc.resent)
		}
		for _, q := range c.queue {
			if q.m != gs.prep && q.m != gs.commit {
				t.Errorf("%s: answered with a vote other than the ones first signed", tc.name)
			}
		}
		if len(gs.prepares) != tc.counted || gs.prepares[peer] != held {
			t.Errorf("%s: %d prepares counted, want %d with the peer's first copy held", tc.name, len(gs.prepares), tc.counted)
		}
	}
	if n := counter.Signs.Load(); n != 0 {
		t.Errorf("answering a retransmission spent %d Sign, want 0", n)
	}
}

// TestProposeComparesHeldCopy: at an involved shard, a re-sent coordination
// proposal equal to the first one verified costs no Ed25519 check, and one
// whose signature differs is verified and rejected; at the initiator every
// re-coordination sends the proposal signed the first time.
func TestProposeComparesHeldCopy(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 5)
	d := b.Digest()
	r := c.replicas[types.ReplicaNode(1, 2)]
	var prop *types.Message
	c.drop = func(to types.NodeID, m *types.Message) bool {
		if to == r.Self && m.Type == types.MsgSharperPropose {
			prop = m
		}
		return false
	}
	c.submit(1, b)
	if prop == nil {
		t.Fatal("the run sent no coordination proposal to the replica")
	}
	c.drop = nil
	counter := &crypto.CountingAuth{Authenticator: r.Auth}
	r.Auth = counter
	flipped := *prop
	flipped.Sig = append([]byte(nil), prop.Sig...)
	flipped.Sig[9] ^= 1
	for _, tc := range []struct {
		name   string
		m      *types.Message
		checks int64
	}{
		{"identical re-send", prop, 0},
		{"signature flipped", &flipped, 1},
	} {
		before := counter.Verifies.Load()
		r.HandleMessage(tc.m)
		if got := counter.Verifies.Load() - before; got != tc.checks {
			t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
		}
		if r.global[d].proposal != prop {
			t.Errorf("%s: the held proposal is not the first valid one", tc.name)
		}
	}

	coord := c.replicas[types.ReplicaNode(0, 0)]
	signer := &crypto.CountingAuth{Authenticator: coord.Auth}
	coord.Auth = signer
	gs := coord.global[d]
	gs.commit = nil // re-coordination runs while a global round is open
	c.queue = nil
	coord.coordinate(b, d)
	if len(c.queue) == 0 || signer.Signs.Load() != 0 {
		t.Fatalf("re-coordination sent %d messages with %d Sign, want some with 0", len(c.queue), signer.Signs.Load())
	}
	for _, q := range c.queue {
		if q.m != gs.proposal {
			t.Fatal("re-coordination sent a proposal other than the one first signed")
		}
	}
}
