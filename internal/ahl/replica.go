package ahl

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/host"
	"ringbft/internal/metrics"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// ReplicaOptions configures an AHL shard replica.
type ReplicaOptions struct {
	Config    types.Config
	Shard     types.ShardID
	Self      types.NodeID
	Peers     []types.NodeID
	Committee []types.NodeID
	Auth      crypto.Authenticator
	Send      Sender
	Clock     func() time.Time

	// Durability/Recovered come from wal.OpenManager: executed blocks are
	// WAL-logged, snapshots cut every CheckpointInterval executed sequences,
	// and a restarted replica resumes from the recovered state. AHL has no
	// peer state transfer — a gap replica stays behind, like the paper's
	// baseline — so durability here covers crash-restart only.
	Durability *wal.Manager
	Recovered  *wal.Recovered

	// Evidence is the misbehavior evidence log (nil = fresh in-memory log).
	Evidence *evidence.Log

	// Metrics/Tracer enable live observability (see the equivalent fields
	// on ringbft.Options). Both optional; pure side effects.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Replica is one AHL shard replica: plain PBFT for single-shard
// transactions; for cross-shard transactions it replicates the
// committee-ordered batch locally (the vote consensus), votes back to the
// committee, and executes once the committee's decision arrives.
type Replica struct {
	*host.Sequential
	committee []types.NodeID

	// cross-shard 2PC state by digest.
	csts map[types.Digest]*replicaCst
}

type replicaCst struct {
	batch *types.Batch
	// prepares and decisions hold, per committee member, the first AHLPrepare
	// and AHLDecision whose signature verified. A retransmitted copy with the
	// same bytes is compared with it, not verified again.
	prepares  map[types.NodeID]*types.Message
	accepted  bool
	decisions map[types.NodeID]*types.Message
	decided   bool
	// vote is this replica's signed 2PC vote, nil until it votes; every
	// retransmission sends these same bytes.
	vote *types.Message
	// cert is the committee's commit certificate from the first verified
	// AHLPrepare: the justification for replicating this cross-shard batch
	// locally, carried into view-change P-set proofs so a NewView can prove
	// it to replicas the prepare broadcast never reached.
	cert []types.Signed
	// sigs holds the committee commit signatures for this cst that verified
	// here (pbft.VerifyCert bounds them): an entry of a later certificate
	// equal to one of them is compared, not verified.
	sigs []types.Signed
	// lastNudge paces head-of-line vote retransmission (see HandleTick).
	lastNudge time.Time
}

// NewReplica creates an AHL shard replica.
func NewReplica(opts ReplicaOptions) *Replica {
	r := &Replica{committee: opts.Committee, csts: make(map[types.Digest]*replicaCst)}
	r.Sequential = host.NewSequential(host.Options{
		Config: opts.Config, Shard: opts.Shard, Self: opts.Self, Peers: opts.Peers,
		Auth: opts.Auth, Send: host.Sender(opts.Send), Clock: opts.Clock,
		Durability: opts.Durability, Recovered: opts.Recovered, Evidence: opts.Evidence,
		Obs:     host.NewObs(opts.Metrics, opts.Tracer, "ahl", opts.Shard, opts.Self),
		Handler: r,
		Callbacks: pbft.Callbacks{
			Committed: r.onCommitted,
			Justification: func(b *types.Batch) ([]types.Signed, bool) {
				if b == nil || !b.IsCrossShard() {
					return nil, true
				}
				if cs, ok := r.csts[b.Digest()]; ok {
					return cs.cert, true
				}
				return nil, true
			},
			VerifyJustification: func(b *types.Batch, just []types.Signed) bool {
				if b == nil || !b.IsCrossShard() || len(just) == 0 {
					return false
				}
				_, ok := r.verifyCert(b.Digest(), just)
				return ok
			},
		},
		// AHL's analogue of RingBFT's Forward gate: a cross-shard batch may
		// be replicated locally only once the committee's AHLPrepare
		// certificate vouches for it. Without this a Byzantine shard primary
		// commits a cst the committee never ordered — it blocks DrainExec
		// forever (no decision will ever arrive for it).
		Justify:          r.justified,
		ReproposeExpired: true,
	}, func(_ *types.Batch, d types.Digest) bool {
		cs := r.csts[d]
		return cs != nil && cs.decided
	})
	return r
}

// justified reports whether batch b, with digest d, may enter local
// consensus: cross-shard batches need the committee's AHLPrepare acceptance
// (f+1 members, verified certificate — see onPrepare). Single-shard batches
// always pass.
func (r *Replica) justified(b *types.Batch, d types.Digest) bool {
	if b == nil || !b.IsCrossShard() {
		return true
	}
	cs, ok := r.csts[d]
	return ok && cs.accepted
}

// HandleMessage dispatches one inbound message.
func (r *Replica) HandleMessage(m *types.Message) {
	if m == nil {
		return
	}
	switch m.Type {
	case types.MsgClientRequest:
		r.onClientRequest(m)
	case types.MsgAHLPrepare:
		r.onPrepare(m)
	case types.MsgAHLDecision:
		r.onDecision(m)
	default:
		r.PBFT.OnMessage(m)
		r.Drain()
	}
}

// HandleTick drives the watchdog.
func (r *Replica) HandleTick(now time.Time) {
	r.Tick(now)
	if !r.Watchdog(now) {
		return
	}
	// Head-of-line nudge: AHL executes strictly in sequence order, so a
	// cross-shard entry whose AHLDecision was lost blocks the whole shard.
	// Re-send the vote — the committee answers a vote for an already-
	// decided cst with the decision directly.
	if e, ok := r.Entries[r.ExecNext+1]; ok && e.Batch.IsCrossShard() {
		d := e.Digest
		if cs, ok := r.csts[d]; ok && cs.vote != nil && !cs.decided &&
			now.Sub(cs.lastNudge) > r.Cfg.LocalTimeout {
			cs.lastNudge = now
			r.sendVote(cs)
		}
	}
}

// onClientRequest handles single-shard requests (cross-shard ones go to the
// committee; if one lands here, it is routed there).
func (r *Replica) onClientRequest(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 {
		return
	}
	d := b.Digest()
	if res, ok := r.Results[d]; ok {
		r.Respond(host.ClientOf(b), d, res)
		return
	}
	if b.IsCrossShard() {
		fwd := *m
		fwd.From = r.Self
		r.Send(r.committee[0], &fwd)
		return
	}
	if !b.Involves(r.Shard) {
		fwd := *m
		fwd.From = r.Self
		r.Send(types.ReplicaNode(b.Initiator(), 0), &fwd)
		return
	}
	r.Enqueue(b, d)
}

func (r *Replica) cst(d types.Digest) *replicaCst {
	cs, ok := r.csts[d]
	if !ok {
		cs = &replicaCst{
			prepares:  make(map[types.NodeID]*types.Message),
			decisions: make(map[types.NodeID]*types.Message),
		}
		r.csts[d] = cs
	}
	return cs
}

// onPrepare handles 2PC phase 1 from the committee: once f+1 members send a
// matching AHLPrepare whose certificate proves committee ordering, the shard
// replicates the batch locally to agree on its vote.
func (r *Replica) onPrepare(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 || !b.Involves(r.Shard) {
		return
	}
	d := b.Digest()
	if d != m.Digest || m.From.Kind != types.KindCommittee {
		return
	}
	var held *types.Message
	if cs := r.csts[d]; cs != nil {
		held = cs.prepares[m.From]
	}
	if crypto.VerifyResent(r.Auth, m, held) != nil {
		return
	}
	sigs, ok := r.verifyCert(d, m.Cert)
	if !ok {
		return
	}
	cs := r.cst(d)
	cs.sigs = sigs
	if cs.batch == nil {
		cs.batch = b
	}
	if cs.cert == nil {
		// One verified copy suffices: the certificate is self-certifying
		// (nf committee commit signatures) and justifies view-change
		// re-proposals of this batch (Justification callback).
		cs.cert = m.Cert
	}
	if held == nil {
		cs.prepares[m.From] = m
	}
	if cs.accepted {
		if cs.vote != nil && !cs.decided {
			// The committee is re-broadcasting its prepare: our earlier
			// vote may have been lost. Resend it.
			r.sendVote(cs)
		}
		return
	}
	if len(cs.prepares) <= r.Cfg.F() {
		return
	}
	cs.accepted = true
	// The acceptance is the justification the PBFT engine gates cross-shard
	// proposals on; re-feed any PrePrepare that arrived ahead of it.
	r.PBFT.ReplayParked()
	r.Enqueue(b, d)
}

// sendVote sends cs's 2PC commit vote to every committee member.
func (r *Replica) sendVote(cs *replicaCst) {
	for _, to := range r.committee {
		r.Send(to, cs.vote)
	}
}

// verifyCert reports whether cert is the committee's commit certificate for
// cst d, comparing the entries whose signatures verified here before, and
// returns every signature verified for d so far; a tracked cst keeps them.
func (r *Replica) verifyCert(d types.Digest, cert []types.Signed) ([]types.Signed, bool) {
	cs := r.csts[d]
	var held []types.Signed
	if cs != nil {
		held = cs.sigs
	}
	held, err := pbft.VerifyCert(r.Auth, types.CommitteeShard, d, cert, r.Cfg.NF(), held)
	if cs != nil {
		cs.sigs = held
	}
	return held, err == nil
}

// onCommitted: local replication done. Single-shard batches execute in
// order; cross-shard batches emit the vote (2PC phase 2) and block the
// execution pipeline until the decision lands.
func (r *Replica) onCommitted(seq types.SeqNum, batch *types.Batch, d types.Digest, _ *pbft.Cert) {
	r.Commit(seq, batch, d)
	if batch.IsCrossShard() {
		cs := r.cst(d)
		if cs.batch == nil {
			cs.batch = batch
		}
		if cs.vote == nil {
			cs.vote = &types.Message{
				Type: types.MsgAHLVote, From: r.Self, Shard: r.Shard,
				Digest: d, Decision: true,
			}
			cs.vote.Sig = crypto.SignMessage(r.Auth, cs.vote)
			cs.lastNudge = r.Clock() // this vote counts as attempt one
			r.sendVote(cs)
		}
	}
	r.DrainExec()
}

// onDecision handles 2PC phase 3: f+1 matching committee decisions commit
// the transaction; the execution pipeline unblocks.
func (r *Replica) onDecision(m *types.Message) {
	if m.From.Kind != types.KindCommittee {
		return
	}
	var held *types.Message
	if cs := r.csts[m.Digest]; cs != nil {
		held = cs.decisions[m.From]
	}
	if crypto.VerifyResent(r.Auth, m, held) != nil {
		return
	}
	cs := r.cst(m.Digest)
	if held == nil {
		cs.decisions[m.From] = m
	}
	if cs.decided || len(cs.decisions) <= r.Cfg.F() {
		return
	}
	cs.decided = true
	r.DrainExec()
}
