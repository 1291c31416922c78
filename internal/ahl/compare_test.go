package ahl

import (
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// flippedSig returns a copy of m whose signature has one bit flipped.
func flippedSig(m *types.Message) *types.Message {
	c := *m
	c.Sig = append([]byte(nil), m.Sig...)
	c.Sig[9] ^= 1
	return &c
}

// TestAHLComparesHeldCopies is the tamper table of AHL's compare sites: a
// retransmitted AHLPrepare, AHLVote or AHLDecision whose bytes equal the
// copy counted from the same sender costs no Ed25519 check, and one whose
// signature, signed tuple or certificate entry differs is verified and, if
// bad, rejected and not counted. Retransmitted votes are the signed bytes
// the replica first sent, not a fresh signature.
func TestAHLComparesHeldCopies(t *testing.T) {
	c := newAHLCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 5)
	d := b.Digest()
	r0, m1, m2 := types.ReplicaNode(0, 0), types.CommitteeNode(1), types.CommitteeNode(2)
	var prepare, vote *types.Message
	decisions := make(map[types.NodeID]*types.Message)
	c.tamper = func(to types.NodeID, m *types.Message) *types.Message {
		switch {
		case to == r0 && m.Type == types.MsgAHLPrepare && m.From == m1:
			prepare = m
		case to == r0 && m.Type == types.MsgAHLDecision:
			decisions[m.From] = m
		case to == types.CommitteeNode(0) && m.Type == types.MsgAHLVote && m.From == types.ReplicaNode(0, 1):
			vote = m
		}
		return m
	}
	c.queue = append(c.queue, routedMsg{types.CommitteeNode(0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: d,
	}})
	c.pump()
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	if prepare == nil || vote == nil || decisions[m1] == nil || decisions[m2] == nil {
		t.Fatal("run did not deliver the messages the table replays")
	}
	c.tamper = nil

	t.Run("prepare", func(t *testing.T) {
		r := c.members[r0].(*Replica)
		counter := &crypto.CountingAuth{Authenticator: r.Auth}
		r.Auth = counter
		cs := r.csts[d]
		cs.decided = false // a counted prepare now re-sends the vote
		badEntry := *prepare
		badEntry.Cert = append([]types.Signed(nil), prepare.Cert...)
		badEntry.Cert[1].Sig = append([]byte(nil), badEntry.Cert[1].Sig...)
		badEntry.Cert[1].Sig[3] ^= 1
		for _, tc := range []struct {
			name   string
			m      *types.Message
			checks int64
			ok     bool
		}{
			{"held copy", prepare, 0, true},
			{"signature flipped", flippedSig(prepare), 1, false},
			{"certificate entry flipped", &badEntry, 1, false},
		} {
			c.queue = nil
			before := counter.Verifies.Load()
			r.HandleMessage(tc.m)
			if got := counter.Verifies.Load() - before; got != tc.checks {
				t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
			}
			if resent := len(c.queue) > 0; resent != tc.ok {
				t.Errorf("%s: accepted = %v, want %v", tc.name, resent, tc.ok)
			}
			for _, q := range c.queue {
				if q.m != cs.vote {
					t.Errorf("%s: re-sent a vote other than the one first signed", tc.name)
				}
			}
			if cs.prepares[m1] != prepare {
				t.Errorf("%s: the counted prepare was replaced", tc.name)
			}
		}
		if n := counter.Signs.Load(); n != 0 {
			t.Errorf("vote retransmissions spent %d Sign, want 0", n)
		}
		cs.decided = true
	})

	t.Run("vote", func(t *testing.T) {
		cm := c.members[types.CommitteeNode(0)].(*Committee)
		counter := &crypto.CountingAuth{Authenticator: cm.Auth}
		cm.Auth = counter
		otherShard := *vote
		otherShard.Shard = 1
		for _, tc := range []struct {
			name   string
			m      *types.Message
			checks int64
			ok     bool
		}{
			{"held copy", vote, 0, true},
			{"signature flipped", flippedSig(vote), 1, false},
			{"signed tuple changed", &otherShard, 1, false},
		} {
			c.queue = nil
			before := counter.Verifies.Load()
			cm.HandleMessage(tc.m)
			if got := counter.Verifies.Load() - before; got != tc.checks {
				t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
			}
			// The cst is decided: an accepted vote is answered with the decision.
			if answered := len(c.queue) > 0; answered != tc.ok {
				t.Errorf("%s: accepted = %v, want %v", tc.name, answered, tc.ok)
			}
		}
	})

	t.Run("decision", func(t *testing.T) {
		r := c.members[r0].(*Replica)
		counter := &crypto.CountingAuth{Authenticator: r.Auth}
		r.Auth = counter
		cs := r.csts[d]
		cs.decided = false
		cs.decisions = map[types.NodeID]*types.Message{m1: decisions[m1]}
		forged := *decisions[m1]
		forged.From = m2 // m1's signature under m2's name
		for _, tc := range []struct {
			name    string
			m       *types.Message
			checks  int64
			counted int
		}{
			{"held copy", decisions[m1], 0, 1},
			{"held sender, signature flipped", flippedSig(decisions[m1]), 1, 1},
			{"new sender, bad signature", &forged, 1, 1},
			{"new sender, valid", decisions[m2], 1, 2},
		} {
			before := counter.Verifies.Load()
			r.HandleMessage(tc.m)
			if got := counter.Verifies.Load() - before; got != tc.checks {
				t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
			}
			if len(cs.decisions) != tc.counted || cs.decisions[m1] != decisions[m1] {
				t.Errorf("%s: %d decisions counted, want %d with m1's first copy held", tc.name, len(cs.decisions), tc.counted)
			}
			if cs.decided != (tc.counted > c.cfg.F()) {
				t.Errorf("%s: decided = %v with %d decisions", tc.name, cs.decided, tc.counted)
			}
		}
	})
}
