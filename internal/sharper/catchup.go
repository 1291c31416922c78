package sharper

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// Peer block transfer: a Sharper replica that falls behind the shard — a
// commit-prefix hole below the stable checkpoint (the engine GC'd the
// sequence, so no view change can ever re-propose it), or a lone view
// change no quorum will join — fetches the blocks it is missing from a
// peer instead of stalling forever (found by internal/chaos, loss-storm
// schedules: two simultaneous stragglers also starve the checkpoint
// quorum, so neither can wait for the other to recover).
//
// Unlike RingBFT's state transfer (internal/ringbft/statetransfer.go),
// which ships the canonical key-value state anchored on a composite
// checkpoint digest, Sharper's checkpoint digest covers only the rolling
// fold of committed batch digests (pbft.CheckpointTracker). The payload
// therefore ships the missing *blocks* plus the nf-signed Checkpoint votes
// certifying the fold at the checkpoint: the requester re-derives the fold
// from its own contiguous prefix (sequence gaps are view-change no-op
// fillers, whose empty-batch digest every replica knows) and re-executes
// the batches locally. Nothing is taken on the responder's word — neither
// state nor results travel, and substituting any batch in the replayed
// range requires a SHA-256 collision against the certified fold.

// checkpointCert memoizes the most recent checkpoint certificate this
// replica observed stabilize, so it can serve catch-up requests even after
// the engine GCs older votes.
type checkpointCert struct {
	seq    types.SeqNum
	digest types.Digest
	cert   []types.Signed
}

// onStabilized is the engine's stable-checkpoint hook: nf replicas signed
// the same fold digest at seq. Memoize the re-assembled certificate while
// the votes are still retained (stabilize GCs only below the new stable).
func (r *Replica) onStabilized(seq types.SeqNum, digest types.Digest) {
	if r.lastCert != nil && r.lastCert.seq >= seq {
		return
	}
	if d, cert, ok := r.PBFT.CheckpointCert(seq); ok && d == digest {
		r.lastCert = &checkpointCert{seq: seq, digest: d, cert: cert}
	}
}

// maybeCatchup (HandleTick) detects the two wedges consensus cannot fix and
// paces a catch-up request to the shard peers:
//
//   - the stable watermark moved past a commit-prefix hole (a NewView's
//     StableSeq adoption pruned a sequence we never committed — the engine
//     will not re-propose it, and execution can never pass it);
//   - a view change no quorum joined (a lone straggler's timeout in an
//     otherwise healthy shard: no NewView will ever arrive, and staying
//     dark stops this replica's cross-shard votes and checkpoints too).
//
// Runs before HandleTick's in-view-change early return — the second wedge
// is only reachable from inside a view change.
func (r *Replica) maybeCatchup(now time.Time) {
	behindStable := r.PBFT.StableSeq() > r.Tracker.Next()
	vcStuck := r.PBFT.InViewChange() && now.Sub(r.LastVC) > 3*r.Cfg.LocalTimeout
	if !behindStable && !vcStuck {
		return
	}
	if now.Sub(r.lastXfer) <= r.Cfg.LocalTimeout {
		return
	}
	r.lastXfer = now
	r.RequestState(r.ExecNext) // the watermark a useful responder must exceed
}

// onStateRequest serves a peer's catch-up request from this replica's most
// recent certified checkpoint, provided local execution covers it and the
// chain still retains every block the requester is missing.
func (r *Replica) onStateRequest(m *types.Message) {
	if !r.VerifyPeer(m) {
		return
	}
	c := r.lastCert
	if c == nil || c.seq <= m.Seq || r.ExecNext < c.seq {
		return // nothing certified that would cover the requester's gap
	}
	blocks := r.Ledger.Blocks()
	if blocks[0].Seq > m.Seq {
		return // pruned past the requester's watermark; cannot serve
	}
	var recs []types.BlockRec
	for _, b := range blocks[1:] {
		if b.Seq > m.Seq && b.Seq <= c.seq {
			recs = append(recs, types.BlockRec{Seq: b.Seq, Primary: b.Primary, Batch: b.Batch})
		}
	}
	resp := &types.Message{
		Type: types.MsgStateSnapshot, From: r.Self, Shard: r.Shard,
		Seq: c.seq, Digest: c.digest,
		State: &types.StatePayload{
			Seq: c.seq, PrefixDigest: c.digest, Cert: c.cert, Blocks: recs,
		},
	}
	resp.MAC = crypto.MACMessage(r.Auth, m.From, resp)
	r.Send(m.From, resp)
}

// onStateSnapshot validates a catch-up payload end to end — checkpoint
// certificate, then fold — and installs it. The first valid payload wins;
// later ones fall behind execNext and are ignored.
func (r *Replica) onStateSnapshot(m *types.Message) {
	if !r.VerifyPeer(m) {
		return
	}
	p := m.State
	if p == nil || p.Seq != m.Seq || p.Seq <= r.ExecNext || p.Seq < r.Tracker.Next() {
		return
	}

	// 1. The certificate: nf distinct shard replicas signed Checkpoint
	// votes for exactly (Seq, PrefixDigest).
	seen := make(map[types.NodeID]bool, len(p.Cert))
	valid := 0
	for i := range p.Cert {
		s := &p.Cert[i]
		if s.Type != types.MsgCheckpoint || s.Shard != r.Shard ||
			s.Seq != p.Seq || s.Digest != p.PrefixDigest {
			continue
		}
		if s.From.Kind != types.KindReplica || s.From.Shard != r.Shard || seen[s.From] {
			continue
		}
		if r.Auth.Verify(s.From, s.SigBytes(), s.Sig) != nil {
			continue
		}
		seen[s.From] = true
		valid++
	}
	if valid < r.Cfg.NF() {
		return
	}

	// 2. The fold: extending our own contiguous commit prefix with the
	// shipped batch digests (empty-batch digest for gaps) must land exactly
	// on the certified digest, with every shipped block consumed in strictly
	// ascending sequence order.
	noop := (&types.Batch{}).Digest()
	next, prefix := r.Tracker.Next(), r.Tracker.Prefix()
	bi := 0
	for bi < len(p.Blocks) && p.Blocks[bi].Seq <= next {
		if bi > 0 && p.Blocks[bi].Seq <= p.Blocks[bi-1].Seq {
			return
		}
		// Overlap with our own committed prefix: the fold below starts past
		// these, so pin each one to the digest we committed ourselves.
		br := &p.Blocks[bi]
		ent, ok := r.Entries[br.Seq]
		if br.Seq > r.ExecNext && (!ok || br.Batch == nil ||
			ent.Digest != br.Batch.Digest()) {
			return
		}
		bi++
	}
	for s := next + 1; s <= p.Seq; s++ {
		d := noop
		if bi < len(p.Blocks) && p.Blocks[bi].Seq == s {
			b := p.Blocks[bi].Batch
			if b == nil || len(b.Txns) == 0 {
				return
			}
			d = b.Digest()
			bi++
		}
		prefix = pbft.FoldStep(prefix, s, d)
	}
	if bi != len(p.Blocks) || prefix != p.PrefixDigest {
		return
	}

	// 3. Install: re-execute the missing blocks in order (the certificate
	// proves the shard committed and passed them — a cross-shard batch in
	// the range had its global rounds complete shard-wide, or no block
	// after it could exist). Client responses are not re-sent: these
	// transactions completed long ago through the healthy replicas.
	for i := range p.Blocks {
		br := &p.Blocks[i]
		if br.Seq <= r.ExecNext {
			continue
		}
		b := br.Batch
		d := b.Digest()
		r.Proposed[d] = struct{}{}
		delete(r.Awaiting, d)
		if gs, ok := r.global[d]; ok {
			gs.committed = true // completed shard-wide; stop renudging it
		}
		r.Executed(br.Seq, br.Primary, d, b, r.Execute(b))
		r.ExecNext = br.Seq
	}
	for s := range r.Entries {
		if s <= p.Seq {
			delete(r.Entries, s)
		}
	}
	r.ExecNext = p.Seq
	r.Tracker.Advance(p.Seq, p.PrefixDigest)
	// Repositioning also clears a lone in-flight view change: the shard is
	// provably past this checkpoint, so rejoining the current view is both
	// safe and the only way this replica ever participates again.
	r.PBFT.ResumeAt(p.Seq, p.Seq+1)
	r.Obs.StateTransfers.Inc()
	if r.lastCert == nil || p.Seq > r.lastCert.seq {
		r.lastCert = &checkpointCert{
			seq: p.Seq, digest: p.PrefixDigest,
			cert: append([]types.Signed(nil), p.Cert...),
		}
	}
	r.DrainExec()
}
