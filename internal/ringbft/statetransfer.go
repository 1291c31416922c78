package ringbft

import (
	"time"

	"ringbft/internal/ledger"
	"ringbft/internal/store"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// RingBFT's half of peer state transfer (host.Transfer; the request, the
// answer and the certificate check live in internal/host/transfer.go). A
// replica that sees a checkpoint stabilize a full interval past its own
// lock-order watermark — restarted with a gap, kept in the dark by a faulty
// primary (attack A3), or rejoining with a wiped data directory — asks for
// the shard's canonical state and re-asks every RemoteTimeout until one
// installs. The content is the canonical key-value table at the checkpoint,
// checked as H(prefix || H(pairs)) against the certified digest: a
// Byzantine peer would need a SHA-256 collision to substitute state.

// retryTransfer re-sends a starved state request on the remote-timeout
// cadence (driven by HandleTick).
func (r *Replica) retryTransfer(now time.Time) {
	if want, asked, ok := r.Requested(); ok && now.Sub(asked) > r.Cfg.RemoteTimeout {
		r.RequestState(want)
	}
}

// serveState fills in the canonical state at checkpoint p.Seq, provided
// local execution has covered it (the canonical state at S is only
// computable once every block <= S executed) and this replica's own
// checkpoint there matches the certified digest d.
func (r *Replica) serveState(p *types.StatePayload, d types.Digest, _ types.SeqNum) bool {
	meta, ok := r.cpMeta[p.Seq]
	if !ok || r.execSeq < p.Seq || compositeCpDigest(meta.prefix, meta.state) != d {
		return false
	}
	p.PrefixDigest, p.StateDigest = meta.prefix, meta.state
	p.Pairs = r.canonicalPairsAt(p.Seq) // fault path only: O(state)
	return true
}

// checkState reports whether p lies past the lock-order watermark and its
// pairs hash, with its prefix digest, to the certified digest d.
func (r *Replica) checkState(p *types.StatePayload, d types.Digest) bool {
	return p.Seq > r.kmax() && compositeCpDigest(p.PrefixDigest, p.StateDigest) == d &&
		stateDigestOf(p.Pairs) == p.StateDigest
}

// installState adopts a validated canonical state at p.Seq: the store and
// ledger restart from the checkpoint, consensus resumes past it, and every
// in-flight structure below it is dropped (those transactions completed
// without us; the canonical state already includes their effects).
func (r *Replica) installState(p *types.StatePayload, certified types.Digest) {
	r.KV.Restore(p.Pairs)

	// The ledger restarts on a synthetic base block deterministically
	// derived from the certified checkpoint. Hash-linking from a transfer
	// boundary mirrors what pruning does at a snapshot boundary: Verify
	// covers the retained suffix. The base index is the certified sequence
	// itself — never a responder-supplied count, which the certificate
	// would not cover. (Height then counts sequences rather than blocks
	// below the boundary; the two differ only by view-change no-op
	// fillers.)
	base := &ledger.Block{Seq: p.Seq, Digest: certified, MerkleRoot: p.StateDigest}
	r.Ledger = ledger.Rebuild(r.Shard, base, int(p.Seq), nil)

	r.cps.Advance(p.Seq, p.PrefixDigest)
	r.execSeq = p.Seq
	r.execDone = make(map[types.SeqNum]struct{})
	r.pendingCps = nil
	r.locks = store.NewLockTable()
	r.csts = make(map[types.Digest]*cstState)
	r.live = make(map[types.Digest]*cstState)
	r.unsettled = nil
	for seq := range r.lockQueue {
		if seq <= p.Seq {
			delete(r.lockQueue, seq)
		}
	}
	r.PBFT.ResumeAt(p.Seq, p.Seq+1)
	r.Observe(p.Seq, trace.PhaseStateTransfer)

	r.Reset(p.Seq, certified, r.snapMarks)
	// Sequences queued past the checkpoint can lock now.
	r.drainLockQueue()
}
