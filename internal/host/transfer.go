package host

import (
	"maps"
	"slices"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/ledger"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Peer state transfer (attack A3, Section 5): a replica that falls behind
// its shard fetches a certified checkpoint from a peer instead of stalling
// on sequences it can never replay. Every answer carries the nf signed
// Checkpoint messages over its (seq, digest) and the canonical table at seq,
// which must hash to that digest (checkpoint.go), so nothing is taken on
// the responder's word: a Byzantine peer would need a SHA-256 collision to
// substitute state. One honest answer suffices: requests go to every shard
// peer, re-sent on the protocol's cadence until one installs.

// Transfer is what differs between protocols in peer state transfer.
type Transfer struct {
	// Watermark returns the sequence a checkpoint must lie past to be of
	// use here: RingBFT's lock-order watermark, a sequential executor's
	// executed one.
	Watermark func() types.SeqNum
	// Reset drops the protocol's own state at or below an installed
	// checkpoint seq and resumes past it. The host calls it after it has
	// restored the store, the ledger base, the tracker and the engine and
	// cut the durable snapshot.
	Reset func(seq types.SeqNum)
}

// RequestState asks every other member of the shard for a certified
// checkpoint at or above seq: one MsgStateRequest each, MAC'd for its
// recipient. The protocol picks seq (RingBFT: the stable checkpoint that
// revealed the gap; a sequential executor: its executed watermark). The
// request stays outstanding until a payload installs.
func (k *Kernel) RequestState(seq types.SeqNum) {
	k.wanted, k.asked, k.asking = seq, k.Clock(), true
	k.Obs.StateRequests.Inc()
	for _, p := range k.Peers {
		if p != k.Self {
			m := &types.Message{Type: types.MsgStateRequest, From: k.Self, Shard: k.Shard, Seq: seq}
			m.MAC = crypto.MACMessage(k.Auth, p, m)
			k.Send(p, m)
		}
	}
}

// Requested returns the Seq of the latest state request, when it was sent,
// and whether it is still outstanding.
func (k *Kernel) Requested() (seq types.SeqNum, asked time.Time, outstanding bool) {
	return k.wanted, k.asked, k.asking
}

// ServeState answers a peer's MsgStateRequest with the newest checkpoint
// this replica holds a certificate for, if that is at or above the request's
// Seq, this replica signed the certified digest there itself, and its chain
// still holds every block past it (a sequential executor cuts at its own
// executed watermark, which may pass the newest stable checkpoint): its
// canonical table at that checkpoint, with the certificate attached.
func (r *Replica) ServeState(m *types.Message) {
	if !r.VerifyPeer(m) {
		return
	}
	var seq types.SeqNum
	var c checkpoint
	for _, s := range slices.Sorted(maps.Keys(r.cps)) {
		if row := r.cps[s]; row.cert != nil {
			seq, c = s, row
		}
	}
	if base, _ := r.Ledger.Base(); c.cert == nil || seq < m.Seq || base.Seq > seq ||
		compositeCpDigest(c.prefix, c.state) != c.digest {
		return // nothing certified covers the requester's gap, or none this replica can rewind to
	}
	p := &types.StatePayload{
		Seq: seq, PrefixDigest: c.prefix, StateDigest: c.state, Cert: c.cert,
		Pairs: r.canonicalPairsAt(seq), // fault path only: O(state)
	}
	resp := &types.Message{Type: types.MsgStateSnapshot, From: r.Self, Shard: r.Shard, Seq: seq, Digest: c.digest, State: p}
	resp.MAC = crypto.MACMessage(r.Auth, m.From, resp)
	r.Send(m.From, resp)
}

// AcceptState installs a peer's MsgStateSnapshot answering the outstanding
// request. Its checkpoint must be certified (VerifyCheckpoint) and lie past
// the protocol's watermark, and its pairs, with its prefix digest, must hash
// to the certified digest. The first valid payload ends the request.
func (r *Replica) AcceptState(m *types.Message) {
	if !r.asking || !r.VerifyPeer(m) {
		return
	}
	p := m.State
	if p == nil || p.Seq != m.Seq || !r.VerifyCheckpoint(m.Seq, m.Digest, p.Cert) ||
		p.Seq <= r.transfer.Watermark() ||
		compositeCpDigest(p.PrefixDigest, p.StateDigest) != m.Digest || stateDigestOf(p.Pairs) != p.StateDigest {
		return
	}
	r.keepCert(m.Seq, m.Digest, slices.Clone(p.Cert))
	r.asking = false
	r.install(p, m.Digest)
	r.Obs.StateTransfers.Inc()
}

// install adopts a validated canonical state at p.Seq: the store and the
// ledger restart from the checkpoint, the tracker and the engine resume
// past it, the durable state is cut there, and the protocol drops what it
// holds below it (those transactions completed without this replica; the
// canonical state already includes their effects).
func (r *Replica) install(p *types.StatePayload, certified types.Digest) {
	r.KV.Restore(p.Pairs)
	// The ledger restarts on a synthetic base block deterministically
	// derived from the certified checkpoint. Hash-linking from a transfer
	// boundary mirrors what pruning does at a snapshot boundary: Verify
	// covers the retained suffix. The base index is the certified sequence
	// itself, never a responder-supplied count, which the certificate
	// would not cover. (Height then counts sequences rather than blocks
	// below the boundary; the two differ only by view-change no-op
	// fillers.)
	base := &ledger.Block{Seq: p.Seq, Digest: certified, MerkleRoot: p.StateDigest}
	r.Ledger = ledger.Rebuild(r.Shard, base, int(p.Seq), nil)
	r.Tracker.Advance(p.Seq, p.PrefixDigest)
	r.pending = slices.DeleteFunc(r.pending, func(c cpPoint) bool { return c.seq <= p.Seq })
	r.PBFT.ResumeAt(p.Seq, p.Seq+1)
	r.Observe(p.Seq, trace.PhaseStateTransfer)
	r.Reset(p.Seq, certified, func(s *wal.Snapshot) { s.PrefixDigest, s.LastCheckpoint = p.PrefixDigest, p.Seq })
	r.transfer.Reset(p.Seq)
}

// VerifyCheckpoint reports whether nf distinct replicas of this shard signed
// a Checkpoint over (seq, d). A checkpoint this replica holds a certificate
// for is decided by it with no signature checked; otherwise each voter's
// first well-formed entry of cert is.
func (k *Kernel) VerifyCheckpoint(seq types.SeqNum, d types.Digest, cert []types.Signed) bool {
	if c := k.cps[seq]; c.cert != nil {
		return c.digest == d
	}
	seen := make(map[types.NodeID]struct{}, k.Cfg.NF())
	var entries []*types.Signed
	for i := range cert {
		s := &cert[i]
		if _, dup := seen[s.From]; dup || s.Type != types.MsgCheckpoint || s.Shard != k.Shard ||
			s.Seq != seq || s.Digest != d || s.From.Kind != types.KindReplica || s.From.Shard != k.Shard {
			continue
		}
		seen[s.From] = struct{}{}
		entries = append(entries, s)
	}
	if len(entries) < k.Cfg.NF() {
		return false // short: spend no signature check
	}
	valid, _ := crypto.VerifyQuorum(k.Auth, entries, k.Cfg.NF(), nil)
	return valid >= k.Cfg.NF()
}
