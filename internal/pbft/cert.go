package pbft

import (
	"slices"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// Cert is one replica's commit certificate A for a cross-shard decision
// (Fig 5 line 16), as the engine hands it to the host. It holds the signed
// Commits for the decided (view, seq, digest) that reached this replica with
// a valid MAC: at most one per sender, so at most n. None of their
// signatures has been verified. A faulty peer can pair a valid MAC with a
// garbage signature; its vote still counts toward the decision, which needs
// only authenticated votes, but it cannot enter a proof.
//
// The engine adds later Commits' signatures while the decided log entry
// lives. The host owns the Cert and keeps it past the entry's pruning at a
// stable checkpoint.
type Cert struct {
	owner types.NodeID
	nf, n int
	// held is the decision's votes in canonical sender order, then the
	// signatures of later Commits in arrival order. held[:nf] is Unproven.
	held []types.Signed
	// proof caches Prove's first success; failed is len(held) when Prove
	// last failed, so a retry runs only once hold has added a signature.
	proof  []types.Signed
	failed int
}

// newCert builds the certificate of entry ent, just decided at seq, from its
// signed votes for the decided digest.
func (e *Engine) newCert(seq types.SeqNum, ent *entry) *Cert {
	c := &Cert{owner: e.self, nf: e.nf, n: e.n, held: make([]types.Signed, 0, e.n)}
	// Canonical voter order: the certificate travels in messages, so its
	// layout must not depend on map iteration order (replay divergence).
	for _, from := range types.SortedNodeKeys(ent.commits) {
		cv := ent.commits[from]
		if cv.digest != ent.digest || !cv.signed {
			continue
		}
		c.held = append(c.held, types.Signed{
			From: from, Type: types.MsgCommit, Shard: e.shard,
			View: ent.view, Seq: seq, Digest: ent.digest, Sig: cv.sig,
		})
	}
	return c
}

// hold keeps the signature of Commit m, whose MAC verified after the
// decision, if it is for the decided tuple and from a sender not yet held.
func (c *Cert) hold(m *types.Message) {
	if c == nil || len(m.Sig) == 0 || len(c.held) >= c.n {
		return
	}
	t := &c.held[0]
	if m.View != t.View || m.Seq != t.Seq || m.Digest != t.Digest {
		return
	}
	for i := range c.held {
		if c.held[i].From == m.From {
			return
		}
	}
	c.held = append(c.held, types.Signed{
		From: m.From, Type: types.MsgCommit, Shard: t.Shard,
		View: m.View, Seq: m.Seq, Digest: m.Digest, Sig: m.Sig,
	})
}

// Unproven returns the certificate as the decision formed it: the nf votes
// that completed the quorum, in canonical sender order, none verified. Nil
// for a nil Cert (a single-shard decision).
func (c *Cert) Unproven() []types.Signed {
	if c == nil {
		return nil
	}
	return c.held[:c.nf:c.nf]
}

// Prove returns nf held votes whose signatures verify, in canonical sender
// order, or nil while fewer than nf of them do. The decision's votes are
// tried first, so on a fault-free run the proof is Unproven itself; the
// owner's own signature is taken as valid. The first proof found is kept,
// so later calls cost nothing; after a failure, so do calls until another
// signature is held.
// A host calls it only where it hands the certificate to someone who will
// check it.
func (c *Cert) Prove(a crypto.Authenticator) []types.Signed {
	if c == nil {
		return nil
	}
	if c.proof != nil || len(c.held) == c.failed {
		return c.proof
	}
	valid := make([]types.Signed, 0, c.nf)
	var sb [types.SigBytesLen]byte
	for i := range c.held {
		s := &c.held[i]
		if s.From != c.owner && a.Verify(s.From, s.AppendSigBytes(sb[:0]), s.Sig) != nil {
			continue
		}
		valid = append(valid, *s)
		if len(valid) == c.nf {
			break
		}
	}
	if len(valid) < c.nf {
		c.failed = len(c.held)
		return nil
	}
	slices.SortFunc(valid, func(a, b types.Signed) int {
		switch {
		case a.From.Less(b.From):
			return -1
		case b.From.Less(a.From):
			return 1
		}
		return 0
	})
	c.proof = valid
	return valid
}
