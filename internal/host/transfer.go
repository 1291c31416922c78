package host

import (
	"maps"
	"slices"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// Peer state transfer (attack A3, Section 5): a replica that falls behind
// its shard fetches a certified checkpoint from a peer instead of stalling
// on sequences it can never replay. Every answer carries the nf signed
// Checkpoint messages over its (seq, digest), and the protocol's content
// must hash to that digest, so nothing is taken on the responder's word.
// One honest answer suffices: requests go to every shard peer, re-sent on
// the protocol's cadence until one installs.

// Transfer is a protocol's half of peer state transfer: what a
// checkpoint's content is, how it is checked and how it is installed.
type Transfer struct {
	// Serve fills p's content for checkpoint p.Seq, whose certified digest
	// is d, or reports false when this replica cannot or the checkpoint is
	// of no use to the requester. asked is the request's Seq.
	Serve func(p *types.StatePayload, d types.Digest, asked types.SeqNum) bool
	// Check reports whether p, whose checkpoint is certified, is still of
	// use here and its content hashes to the certified digest d.
	Check func(p *types.StatePayload, d types.Digest) bool
	// Install adopts a payload that passed Check.
	Install func(p *types.StatePayload, d types.Digest)
}

// certKeep bounds the kept checkpoint certificates. An answer may anchor on
// a checkpoint below the newest one this replica saw stabilize.
const certKeep = 16

// stableCert is nf signed Checkpoint messages over (seq, digest).
type stableCert struct {
	digest types.Digest
	cert   []types.Signed
}

// keepCert keeps the certificate for checkpoint seq unless one is held,
// evicting the lowest past certKeep.
func (k *Kernel) keepCert(seq types.SeqNum, c stableCert) {
	if _, held := k.certs[seq]; !held {
		k.certs[seq] = c
	}
	if len(k.certs) > certKeep {
		delete(k.certs, slices.Min(slices.Collect(maps.Keys(k.certs))))
	}
}

// RequestState asks every other member of the shard for a certified
// checkpoint at or above seq: one MsgStateRequest each, MAC'd for its
// recipient. The protocol picks seq (RingBFT: the stable checkpoint that
// revealed the gap; Sharper: its executed watermark, past which its Serve
// ships blocks). The request stays outstanding until a payload installs.
func (k *Kernel) RequestState(seq types.SeqNum) {
	k.wanted, k.asked, k.asking = seq, k.Clock(), true
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
// Seq and the protocol can supply its content.
func (k *Kernel) ServeState(m *types.Message) {
	if k.transfer == nil || len(k.certs) == 0 || !k.VerifyPeer(m) {
		return
	}
	seq := slices.Max(slices.Collect(maps.Keys(k.certs)))
	if seq < m.Seq {
		return // nothing certified that would cover the requester's gap
	}
	c := k.certs[seq]
	p := &types.StatePayload{Seq: seq, Cert: c.cert}
	if !k.transfer.Serve(p, c.digest, m.Seq) {
		return
	}
	resp := &types.Message{Type: types.MsgStateSnapshot, From: k.Self, Shard: k.Shard, Seq: seq, Digest: c.digest, State: p}
	resp.MAC = crypto.MACMessage(k.Auth, m.From, resp)
	k.Send(m.From, resp)
}

// AcceptState installs a peer's MsgStateSnapshot answering the outstanding
// request: its checkpoint must be certified (VerifyCheckpoint), and its
// content must check against the certified digest. The first valid payload
// ends the request.
func (k *Kernel) AcceptState(m *types.Message) {
	if k.transfer == nil || !k.asking || !k.VerifyPeer(m) {
		return
	}
	p := m.State
	if p == nil || p.Seq != m.Seq || !k.VerifyCheckpoint(m.Seq, m.Digest, p.Cert) ||
		!k.transfer.Check(p, m.Digest) {
		return
	}
	k.keepCert(m.Seq, stableCert{digest: m.Digest, cert: slices.Clone(p.Cert)})
	k.asking = false
	k.transfer.Install(p, m.Digest)
	k.Obs.StateTransfers.Inc()
}

// VerifyCheckpoint reports whether nf distinct replicas of this shard signed
// a Checkpoint over (seq, d). A checkpoint this replica holds a certificate
// for is decided by it with no signature checked; otherwise each voter's
// first well-formed entry of cert is.
func (k *Kernel) VerifyCheckpoint(seq types.SeqNum, d types.Digest, cert []types.Signed) bool {
	if c, held := k.certs[seq]; held {
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
