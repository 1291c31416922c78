// Package ahl implements the AHL baseline (Dang et al., SIGMOD 2019;
// Section 2 "Designated Committee"): a reference committee — its own PBFT
// group, hosted in a single region — globally orders every cross-shard
// transaction, then drives a two-phase commit against the involved shards:
//
//  1. committee consensus orders the cst and broadcasts AHLPrepare to every
//     replica of every involved shard (committee×shard all-to-all);
//  2. each shard locally replicates the cst with PBFT (agreeing on its
//     vote) and every replica sends AHLVote back to every committee member;
//  3. the committee runs a second PBFT consensus on the decision and
//     broadcasts AHLDecision to every replica of every involved shard;
//  4. shards execute and the initiator shard's replicas answer the client.
//
// This centralizes WAN traffic at the committee's region and pays three
// PBFT consensuses plus two all-to-all exchanges per cst — the cost profile
// the paper's evaluation attributes AHL's 18× deficit to. Single-shard
// transactions run plain PBFT inside their shard, identically to RingBFT.
//
// Simplification (DESIGN.md §3): shards always vote commit — conflicting
// transactions serialize through each shard's local log instead of aborting
// — and execution uses locally available reads (AHL does not ship remote
// read values; Section 8.8).
package ahl

import (
	"encoding/binary"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/host"
	"ringbft/internal/metrics"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// Sender abstracts the network.
type Sender = host.Sender

// decisionClient marks synthetic committee decision batches (never a real
// client identifier).
const decisionClient types.ClientID = -9

// decisionBatch encodes "the committee decided `commit` for cst d" as a
// batch the committee's PBFT engine can order: the 32-byte digest rides in
// four write keys, the verdict in Delta.
func decisionBatch(d types.Digest, commit bool) *types.Batch {
	t := types.Txn{ID: types.TxnID{Client: decisionClient, Seq: binary.BigEndian.Uint64(d[:8])}}
	for i := 0; i < 4; i++ {
		t.Writes = append(t.Writes, types.Key(binary.BigEndian.Uint64(d[i*8:])))
	}
	if commit {
		t.Delta = 1
	}
	return &types.Batch{Txns: []types.Txn{t}, Involved: []types.ShardID{types.CommitteeShard}}
}

// parseDecision reverses decisionBatch.
func parseDecision(b *types.Batch) (d types.Digest, commit bool, ok bool) {
	if len(b.Txns) != 1 || b.Txns[0].ID.Client != decisionClient || len(b.Txns[0].Writes) != 4 {
		return d, false, false
	}
	for i, k := range b.Txns[0].Writes {
		binary.BigEndian.PutUint64(d[i*8:], uint64(k))
	}
	return d, b.Txns[0].Delta == 1, true
}

// CommitteeOptions configures a reference-committee member.
type CommitteeOptions struct {
	Config     types.Config
	Self       types.NodeID
	Peers      []types.NodeID // committee members; Peers[i].Index == i
	ShardPeers [][]types.NodeID
	Auth       crypto.Authenticator
	Send       Sender
	Clock      func() time.Time

	// Metrics/Tracer enable live observability (see the equivalent fields
	// on ringbft.Options). Both optional; pure side effects.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Committee is one member of AHL's reference committee.
type Committee struct {
	*host.Kernel
	shardPeers [][]types.NodeID
	tracker    *pbft.CheckpointTracker

	// csts tracks cross-shard transactions through the 2PC.
	csts map[types.Digest]*committeeCst
}

type committeeCst struct {
	batch   *types.Batch
	gseq    types.SeqNum
	cert    *pbft.Cert
	ordered bool
	// votes holds each shard replica's counted vote, whose signature
	// verified; a retransmitted copy with the same bytes is compared with
	// it, not verified again.
	votes map[types.ShardID]map[types.NodeID]*types.Message
	// prepare is the signed AHLPrepare, built once its certificate is
	// proven; every re-broadcast sends these same bytes.
	prepare *types.Message
	decided bool // decision proposed/committed
	// decision is the signed AHLDecision, nil until broadcast; every
	// re-broadcast and direct answer sends these same bytes.
	decision *types.Message
	// pendingNotify holds the decision verdict when the decision consensus
	// committed before the original batch's ordering did (see onCommitted).
	pendingNotify bool
	// lastNudge paces the retransmission of an undecided cst's AHLPrepare
	// (the one-shot broadcast is lossy; without re-solicitation a vote
	// quorum starved by the network never forms).
	lastNudge time.Time
}

// NewCommittee creates a committee member.
func NewCommittee(opts CommitteeOptions) *Committee {
	c := &Committee{
		shardPeers: opts.ShardPeers,
		csts:       make(map[types.Digest]*committeeCst),
	}
	c.Kernel = host.New(host.Options{
		Config: opts.Config, Shard: types.CommitteeShard, Self: opts.Self, Peers: opts.Peers,
		Auth: opts.Auth, Send: opts.Send, Clock: opts.Clock,
		Obs:       host.NewObs(opts.Metrics, opts.Tracer, "ahl", types.CommitteeShard, opts.Self),
		Handler:   c,
		Callbacks: pbft.Callbacks{Committed: c.onCommitted},
		// Decision batches have no client to retry them, so a latch left by
		// a dead view would wedge the cst with no recovery path; a double
		// commit is absorbed in onCommitted (the ordered latch, and a decision
		// already signed).
		ReproposeExpired: true,
	})
	c.tracker = pbft.NewCheckpointTracker(opts.Config.CheckpointInterval, c.PBFT.MakeCheckpoint)
	return c
}

// HandleMessage dispatches one inbound message.
func (c *Committee) HandleMessage(m *types.Message) {
	if m == nil {
		return
	}
	switch m.Type {
	case types.MsgClientRequest:
		c.onClientRequest(m)
	case types.MsgAHLVote:
		c.onVote(m)
	default:
		c.PBFT.OnMessage(m)
		c.Drain()
	}
}

// HandleTick drives the committee watchdog.
func (c *Committee) HandleTick(now time.Time) {
	c.Tick(now)
	if !c.Watchdog(now) {
		return
	}
	// Retransmit AHLPrepare for ordered-but-undecided csts: the phase-1
	// broadcast is one-shot, so on a lossy network a vote quorum may never
	// form without re-solicitation (found by internal/chaos, loss-storm
	// schedules — AHL executes strictly in order, so one starved cst
	// wedges every shard it involves).
	for _, d := range types.SortedDigestKeys(c.csts) {
		cst := c.csts[d]
		if cst.ordered && !cst.decided && now.Sub(cst.lastNudge) > c.Cfg.RemoteTimeout {
			cst.lastNudge = now
			c.broadcastPrepare(cst)
		}
	}
}

func (c *Committee) onClientRequest(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 || !b.IsCrossShard() {
		return
	}
	d := b.Digest()
	cst, ok := c.csts[d]
	if ok && cst.decision != nil {
		// Already decided; re-broadcast the decision in case it was lost
		// (shards answer the client once they execute).
		c.sendToShards(cst.batch, cst.decision)
		return
	}
	if ok && cst.ordered {
		// Ordered but votes/decision still in flight: re-broadcast the
		// prepare so shards resend votes.
		c.broadcastPrepare(cst)
		return
	}
	c.Enqueue(b, d)
}

// onCommitted handles both committee consensus outcomes: a freshly ordered
// cst (phase 1: broadcast AHLPrepare) and a committed decision batch
// (phase 3: broadcast AHLDecision).
func (c *Committee) onCommitted(seq types.SeqNum, batch *types.Batch, d types.Digest, cert *pbft.Cert) {
	c.tracker.Committed(seq, d)
	if cd, commit, ok := parseDecision(batch); ok {
		cst, ok := c.csts[cd]
		if !ok || cst.decision != nil {
			return
		}
		cst.decided = true
		delete(c.Awaiting, d)
		if !cst.ordered {
			// Consensus results can commit out of order: the decision may
			// land before this member processes the original batch's
			// ordering, in which case the batch content (and its involved
			// shards) is not known yet. Defer the broadcast until it is.
			cst.pendingNotify = commit
			return
		}
		c.notify(cst, cd, commit)
		return
	}
	if len(batch.Txns) == 0 {
		return
	}
	c.Settle(d)
	cst, ok := c.csts[d]
	if !ok {
		cst = &committeeCst{votes: make(map[types.ShardID]map[types.NodeID]*types.Message)}
		c.csts[d] = cst
	}
	cst.batch = batch
	cst.gseq = seq
	cst.cert = cert
	cst.prepare = nil // a re-ordering carries its own sequence and certificate
	cst.ordered = true
	cst.lastNudge = c.Clock() // the ordering broadcast below counts as attempt one
	// Phase 1 of 2PC: prepare at every replica of every involved shard. The
	// commit certificate makes the order transferable.
	c.broadcastPrepare(cst)
	if cst.decided && cst.decision == nil {
		// The decision committed before the ordering did (deferred above).
		c.notify(cst, d, cst.pendingNotify)
		return
	}
	c.maybeDecide(cst)
}

// broadcastPrepare sends cst's AHLPrepare to every replica of every involved
// shard. Those replicas verify the certificate it carries on arrival, so the
// committee proves it first; while fewer than nf of its held signatures
// verify nothing is sent, and the HandleTick nudge tries again once later
// Commits have brought more.
func (c *Committee) broadcastPrepare(cst *committeeCst) {
	if cst.prepare == nil {
		proof := cst.cert.Prove(c.Auth)
		if proof == nil {
			return
		}
		cst.prepare = &types.Message{
			Type: types.MsgAHLPrepare, From: c.Self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: cst.batch.Digest(), Batch: cst.batch, Cert: proof,
		}
		cst.prepare.Sig = crypto.SignMessage(c.Auth, cst.prepare)
	}
	c.sendToShards(cst.batch, cst.prepare)
}

// notify signs cst's AHLDecision on the batch with digest d, once, and
// sends it to every replica of every involved shard (phase 3).
func (c *Committee) notify(cst *committeeCst, d types.Digest, commit bool) {
	cst.decision = &types.Message{
		Type: types.MsgAHLDecision, From: c.Self, Shard: types.CommitteeShard,
		Seq: cst.gseq, Digest: d, Decision: commit,
	}
	cst.decision.Sig = crypto.SignMessage(c.Auth, cst.decision)
	c.sendToShards(cst.batch, cst.decision)
}

// sendToShards sends m to every replica of every shard involved in b.
func (c *Committee) sendToShards(b *types.Batch, m *types.Message) {
	for _, s := range b.Involved {
		if int(s) < 0 || int(s) >= len(c.shardPeers) {
			continue
		}
		for _, to := range c.shardPeers[s] {
			c.Send(to, m)
		}
	}
}

// onVote records one shard replica's 2PC vote.
func (c *Committee) onVote(m *types.Message) {
	if m.From.Kind != types.KindReplica {
		return
	}
	var held *types.Message
	if cst := c.csts[m.Digest]; cst != nil {
		held = cst.votes[m.From.Shard][m.From]
	}
	if crypto.VerifyResent(c.Auth, m, held) != nil {
		return
	}
	cst, ok := c.csts[m.Digest]
	if !ok {
		cst = &committeeCst{votes: make(map[types.ShardID]map[types.NodeID]*types.Message)}
		c.csts[m.Digest] = cst
	}
	if cst.decision != nil {
		// The voter missed the decision broadcast (its shard's execution
		// pipeline is blocked on this cst); answer it directly.
		c.Send(m.From, cst.decision)
		return
	}
	if !m.Decision {
		return // commit-only simplification; see package comment
	}
	sv, ok := cst.votes[m.From.Shard]
	if !ok {
		sv = make(map[types.NodeID]*types.Message)
		cst.votes[m.From.Shard] = sv
	}
	if held == nil {
		sv[m.From] = m
	}
	c.maybeDecide(cst)
}

// maybeDecide starts the decision consensus once f+1 replicas of every
// involved shard voted commit.
func (c *Committee) maybeDecide(cst *committeeCst) {
	if !cst.ordered || cst.decided {
		return
	}
	for _, s := range cst.batch.Involved {
		if len(cst.votes[s]) < c.Cfg.F()+1 {
			return
		}
	}
	cst.decided = true
	db := decisionBatch(cst.batch.Digest(), true)
	c.Enqueue(db, db.Digest())
}
