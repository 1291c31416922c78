package protocols

import (
	"context"

	"ringbft/internal/types"
)

// SBFTNode implements Sbft's linear normal case (Gueta et al.): replicas
// send signature shares to a collector (the primary here) which aggregates
// them and broadcasts the combined certificate — turning both quadratic
// PBFT phases into linear collect/distribute rounds. Threshold signatures
// are modelled as the set of Ed25519 shares (the Cert field), preserving
// message counts and sizes.
type SBFTNode struct {
	base
	isPrimary bool
	nextSeq   types.SeqNum
	slots     map[types.SeqNum]*sbftSlot
}

type sbftSlot struct {
	digest     types.Digest
	batch      *types.Batch
	prepShares map[types.NodeID][]byte
	commShares map[types.NodeID][]byte
	fullPrep   bool
	fullComm   bool
	decided    bool
}

// NewSBFT creates an Sbft replica.
func NewSBFT(opts Options) *SBFTNode {
	return &SBFTNode{
		base:      newBase(opts),
		isPrimary: opts.Self.Index == 0,
		slots:     make(map[types.SeqNum]*sbftSlot),
	}
}

// Run drives the replica until ctx is cancelled.
func (s *SBFTNode) Run(ctx context.Context, inbox <-chan *types.Message) {
	runLoop(ctx, inbox, s.handle)
}

func (s *SBFTNode) slot(seq types.SeqNum) *sbftSlot {
	sl, ok := s.slots[seq]
	if !ok {
		sl = &sbftSlot{
			prepShares: make(map[types.NodeID][]byte),
			commShares: make(map[types.NodeID][]byte),
		}
		s.slots[seq] = sl
	}
	return sl
}

func (s *SBFTNode) handle(m *types.Message) {
	if m == nil {
		return
	}
	switch m.Type {
	case types.MsgClientRequest:
		s.onClientRequest(m)
	case types.MsgPrePrepare:
		s.onPrePrepare(m)
	case types.MsgSbftPrepare:
		s.onShare(m, false)
	case types.MsgSbftFullPrep:
		s.onFull(m, false)
	case types.MsgSbftSignShare:
		s.onShare(m, true)
	case types.MsgSbftFullCommit:
		s.onFull(m, true)
	default:
		// Message types belonging to the other protocol families are
		// dropped: an SBFT node has no handler to misroute them to.
	}
}

func (s *SBFTNode) onClientRequest(m *types.Message) {
	if !s.isPrimary || m.Batch == nil || len(m.Batch.Txns) == 0 {
		return
	}
	d := m.Batch.Digest()
	if _, done := s.executed[d]; done {
		s.respond(types.ClientNode(m.Batch.Txns[0].ID.Client), d, s.executed[d])
		return
	}
	s.nextSeq++
	sl := s.slot(s.nextSeq)
	if sl.batch != nil {
		return
	}
	sl.batch, sl.digest = m.Batch, d
	pp := &types.Message{
		Type: types.MsgPrePrepare, From: s.self,
		Seq: s.nextSeq, Digest: d, Batch: m.Batch,
	}
	s.broadcastMAC(pp)
	// The collector registers its own prepare share.
	share := &types.Message{Type: types.MsgSbftPrepare, From: s.self, Seq: s.nextSeq, Digest: d}
	sl.prepShares[s.self] = s.auth.Sign(share.SigBytes())
	s.maybeAggregate(s.nextSeq, sl, false)
}

func (s *SBFTNode) onPrePrepare(m *types.Message) {
	if m.From != s.peers[0] || m.Batch == nil || !s.verifyMAC(m) || m.Batch.Digest() != m.Digest {
		return
	}
	sl := s.slot(m.Seq)
	if sl.batch != nil {
		return
	}
	sl.batch, sl.digest = m.Batch, m.Digest
	// Linear: the share goes only to the collector.
	share := &types.Message{Type: types.MsgSbftPrepare, From: s.self, Seq: m.Seq, Digest: m.Digest}
	share.Sig = s.auth.Sign(share.SigBytes())
	s.send(s.peers[0], share)
}

// onShare runs at the collector: accumulate signature shares, aggregate at
// nf, and distribute the combined message.
func (s *SBFTNode) onShare(m *types.Message, commit bool) {
	if !s.isPrimary || !s.isPeer(m.From) {
		return
	}
	if s.auth.Verify(m.From, m.SigBytes(), m.Sig) != nil {
		return
	}
	sl := s.slot(m.Seq)
	if sl.digest != m.Digest {
		return
	}
	if commit {
		sl.commShares[m.From] = m.Sig
	} else {
		sl.prepShares[m.From] = m.Sig
	}
	s.maybeAggregate(m.Seq, sl, commit)
}

func (s *SBFTNode) maybeAggregate(seq types.SeqNum, sl *sbftSlot, commit bool) {
	shares := sl.prepShares
	typ := types.MsgSbftFullPrep
	shareType := types.MsgSbftPrepare
	if commit {
		shares = sl.commShares
		typ = types.MsgSbftFullCommit
		shareType = types.MsgSbftSignShare
	}
	if len(shares) < s.nf || (commit && sl.fullComm) || (!commit && sl.fullPrep) {
		return
	}
	// Canonical share order: the certificate is broadcast, so its layout
	// must not depend on map iteration order.
	cert := make([]types.Signed, 0, s.nf)
	for _, from := range types.SortedNodeKeys(shares) {
		sig := shares[from]
		cert = append(cert, types.Signed{
			From: from, Type: shareType, Seq: seq, Digest: sl.digest, Sig: sig,
		})
		if len(cert) == s.nf {
			break
		}
	}
	full := &types.Message{Type: typ, From: s.self, Seq: seq, Digest: sl.digest, Cert: cert}
	s.broadcastMAC(full)
	if commit {
		sl.fullComm = true
		s.decide(seq, sl)
	} else {
		sl.fullPrep = true
		// Collector's own commit share.
		share := &types.Message{Type: types.MsgSbftSignShare, From: s.self, Seq: seq, Digest: sl.digest}
		sl.commShares[s.self] = s.auth.Sign(share.SigBytes())
		s.maybeAggregate(seq, sl, true)
	}
}

// onFull runs at replicas: a full-prepare triggers the commit share; a
// full-commit decides the slot. The aggregated certificate's nf signature
// shares are verified against the replica's key ring — a Byzantine
// collector cannot fabricate progress from thin air.
func (s *SBFTNode) onFull(m *types.Message, commit bool) {
	if m.From != s.peers[0] || !s.verifyMAC(m) || len(m.Cert) < s.nf {
		return
	}
	sl := s.slot(m.Seq)
	if sl.digest != m.Digest || sl.batch == nil {
		return
	}
	shareType := types.MsgSbftPrepare
	if commit {
		shareType = types.MsgSbftSignShare
	}
	if !s.verifyShareCert(m.Cert, shareType, m.Seq, m.Digest, s.nf) {
		return
	}
	if !commit {
		if sl.fullPrep {
			return
		}
		sl.fullPrep = true
		share := &types.Message{Type: types.MsgSbftSignShare, From: s.self, Seq: m.Seq, Digest: m.Digest}
		share.Sig = s.auth.Sign(share.SigBytes())
		s.send(s.peers[0], share)
		return
	}
	sl.fullComm = true
	s.decide(m.Seq, sl)
}

func (s *SBFTNode) decide(seq types.SeqNum, sl *sbftSlot) {
	if sl.decided || sl.batch == nil {
		return
	}
	sl.decided = true
	s.markReady(seq, sl.batch)
}
