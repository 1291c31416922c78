package ringbft

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/ledger"
	"ringbft/internal/store"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// Peer state transfer: a replica that falls a full checkpoint interval
// behind a stable checkpoint — restarted with a gap, kept in the dark by a
// faulty primary (attack A3), or rejoining with a wiped data directory —
// fetches the shard's canonical state from a peer instead of stalling
// forever on sequences it can never replay.
//
// Validation is certificate-anchored, not trust-based: the requester only
// installs a payload whose (seq, H(prefixDigest || stateDigest)) matches a
// checkpoint it itself observed stabilize — i.e. nf signed Checkpoint
// messages it verified — and whose Pairs hash to stateDigest. A Byzantine
// peer would need a SHA-256 collision to substitute state. A single honest
// response therefore suffices; requests go to every shard peer and the
// remote timer re-broadcasts until one lands.

// transferState tracks one in-flight state-transfer request.
type transferState struct {
	target types.SeqNum // stable checkpoint that revealed the gap
	since  time.Time
	// pending buffers responses whose checkpoint we have not yet observed
	// stabilize ourselves; they are re-evaluated on every stabilization.
	pending map[types.NodeID]*types.StatePayload
}

// requestStateTransfer broadcasts a MsgStateRequest to the shard peers.
func (r *Replica) requestStateTransfer(target types.SeqNum) {
	if r.transfer != nil && r.transfer.target >= target {
		return
	}
	if r.transfer == nil {
		r.transfer = &transferState{pending: make(map[types.NodeID]*types.StatePayload)}
	}
	r.transfer.target = target
	r.transfer.since = r.Clock()
	r.RequestState(target)
}

// onStateRequest serves a peer's catch-up request from this replica's
// latest stable checkpoint, provided local execution has covered it (the
// canonical state at S is only computable once every block <= S executed).
func (r *Replica) onStateRequest(m *types.Message) {
	if !r.VerifyPeer(m) {
		return
	}
	stable := r.PBFT.StableSeq()
	meta, ok := r.cpMeta[stable]
	if !ok || stable < m.Seq || r.execSeq < stable {
		return // nothing (yet) that would cover the requester's gap
	}
	payload := &types.StatePayload{
		Seq:          stable,
		PrefixDigest: meta.prefix,
		StateDigest:  meta.state,
		Pairs:        r.canonicalPairsAt(stable), // fault path only: O(state)
	}
	resp := &types.Message{
		Type: types.MsgStateSnapshot, From: r.Self, Shard: r.Shard,
		Seq: stable, Digest: compositeCpDigest(meta.prefix, meta.state),
		State: payload,
	}
	resp.MAC = crypto.MACMessage(r.Auth, m.From, resp)
	r.Send(m.From, resp)
}

// onStateSnapshot buffers a peer's state payload and tries to install it.
func (r *Replica) onStateSnapshot(m *types.Message) {
	if r.transfer == nil || m.State == nil || !r.VerifyPeer(m) {
		return
	}
	if m.State.Seq != m.Seq || m.State.Seq <= r.kmax() {
		return
	}
	r.transfer.pending[m.From] = m.State
	r.evaluateTransfer()
}

// evaluateTransfer installs the first buffered payload that validates
// against a locally observed checkpoint quorum.
func (r *Replica) evaluateTransfer() {
	if r.transfer == nil {
		return
	}
	// Canonical donor order: "first payload that validates" must mean the
	// same payload on every replay, not whichever one map iteration reached
	// first.
	for _, from := range types.SortedNodeKeys(r.transfer.pending) {
		p := r.transfer.pending[from]
		if p.Seq <= r.kmax() {
			delete(r.transfer.pending, from)
			continue
		}
		certified, ok := r.stabilized[p.Seq]
		if !ok {
			continue // wait until we observe this checkpoint stabilize
		}
		if compositeCpDigest(p.PrefixDigest, p.StateDigest) != certified {
			delete(r.transfer.pending, from) // forged or damaged payload
			continue
		}
		if stateDigestOf(p.Pairs) != p.StateDigest {
			delete(r.transfer.pending, from)
			continue
		}
		r.installState(p, certified)
		return
	}
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
	r.Obs.StateTransfers.Inc()
	r.Observe(p.Seq, trace.PhaseStateTransfer)
	r.transfer = nil

	r.Reset(p.Seq, certified, r.snapMarks)
	// Sequences queued past the checkpoint can lock now.
	r.drainLockQueue()
}

// retryTransfer re-broadcasts a starved state request (driven by
// HandleTick on the remote-timeout cadence).
func (r *Replica) retryTransfer(now time.Time) {
	if r.transfer == nil {
		return
	}
	if now.Sub(r.transfer.since) > r.Cfg.RemoteTimeout {
		r.transfer.since = now
		r.RequestState(r.transfer.target)
	}
}
