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
	"bytes"
	"context"
	"encoding/binary"
	"sort"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/metrics"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// Sender abstracts the network.
type Sender func(to types.NodeID, m *types.Message)

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
	cfg        types.Config
	self       types.NodeID
	peers      []types.NodeID
	shardPeers [][]types.NodeID
	auth       crypto.Authenticator
	verifier   *crypto.Verifier
	send       Sender
	clock      func() time.Time

	engine  *pbft.Engine
	tracker *pbft.CheckpointTracker

	// csts tracks cross-shard transactions through the 2PC.
	csts map[types.Digest]*committeeCst

	awaiting map[types.Digest]*pending
	proposed map[types.Digest]struct{}
	queue    []*types.Batch

	viewChanges int64

	obs *hostObs
}

type committeeCst struct {
	batch    *types.Batch
	gseq     types.SeqNum
	cert     []types.Signed
	ordered  bool
	votes    map[types.ShardID]map[types.NodeID]struct{}
	decided  bool // decision proposed/committed
	notified bool // AHLDecision broadcast
	// pendingNotify holds the decision verdict when the decision consensus
	// committed before the original batch's ordering did (see onCommitted).
	pendingNotify bool
	// lastNudge paces the retransmission of an undecided cst's AHLPrepare
	// (the one-shot broadcast is lossy; without re-solicitation a vote
	// quorum starved by the network never forms).
	lastNudge time.Time
}

type pending struct {
	batch *types.Batch
	since time.Time
}

// NewCommittee creates a committee member.
func NewCommittee(opts CommitteeOptions) *Committee {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	verifier := crypto.NewVerifier(opts.Auth)
	c := &Committee{
		cfg:        opts.Config,
		self:       opts.Self,
		peers:      opts.Peers,
		shardPeers: opts.ShardPeers,
		auth:       verifier,
		verifier:   verifier,
		send:       opts.Send,
		clock:      opts.Clock,
		csts:       make(map[types.Digest]*committeeCst),
		awaiting:   make(map[types.Digest]*pending),
		proposed:   make(map[types.Digest]struct{}),
		tracker:    pbft.NewCheckpointTracker(opts.Config.CheckpointInterval),
	}
	c.obs = newHostObs(opts.Metrics, opts.Tracer, types.CommitteeShard, opts.Self)
	c.engine = pbft.New(types.CommitteeShard, opts.Self, opts.Peers, opts.Auth, pbft.Callbacks{
		Send:      func(to types.NodeID, m *types.Message) { c.send(to, m) },
		Committed: c.onCommitted,
		ViewChanged: func(types.View) {
			c.viewChanges++
			c.obs.incViewChanges()
			c.repropose()
		},
	}, pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout, Verifier: verifier, OnPhase: c.obs.phase(types.CommitteeShard)})
	return c
}

// ViewChangeCount reports committee view changes (read after Run returns).
func (c *Committee) ViewChangeCount() int64 { return c.viewChanges }

// RetransmitCount reports retransmissions (none at the committee).
func (c *Committee) RetransmitCount() int64 { return 0 }

// Run drives the member until ctx is cancelled.
func (c *Committee) Run(ctx context.Context, inbox <-chan *types.Message) {
	tickEvery := c.cfg.LocalTimeout / 4
	if tickEvery <= 0 {
		tickEvery = 25 * time.Millisecond
	}
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			c.HandleMessage(m)
		case <-ticker.C:
			c.HandleTick(c.clock())
		}
	}
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
		c.engine.OnMessage(m)
		c.tryProposeQueued()
	}
}

// HandleTick drives the committee watchdog.
func (c *Committee) HandleTick(now time.Time) {
	c.engine.Tick(now)
	c.tryProposeQueued()
	c.obs.sample(len(c.queue), 0)
	if c.engine.InViewChange() {
		return
	}
	expired := false
	// Sorted-digest order: the re-proposal below assigns sequence numbers,
	// which must not depend on map iteration order.
	for _, d := range types.SortedDigestKeys(c.awaiting) {
		p := c.awaiting[d]
		if now.Sub(p.since) > c.cfg.LocalTimeout {
			p.since = now
			expired = true
			if c.engine.IsPrimary() {
				// An awaiting entry that expired on the primary was lost in
				// flight. Decision batches have no client to retry them, so
				// the proposed latch — set when a PRIOR primacy of this
				// member proposed it into a view that died — would dedupe
				// the re-proposal forever: every member latches after
				// enough view changes and the cst wedges with no recovery
				// path (found by internal/chaos, loss-storm schedules).
				// Clear the latch and propose again; a double commit is
				// absorbed by the ordered/notified latches in onCommitted.
				delete(c.proposed, d)
				c.propose(p.batch, d)
			}
		}
	}
	if expired && !c.engine.IsPrimary() {
		c.engine.StartViewChange(c.engine.View() + 1)
		return
	}
	if oldest, ok := c.engine.OldestUncommitted(); ok && now.Sub(oldest) > c.cfg.LocalTimeout {
		c.engine.StartViewChange(c.engine.View() + 1)
	}
	// Retransmit AHLPrepare for ordered-but-undecided csts: the phase-1
	// broadcast is one-shot, so on a lossy network a vote quorum may never
	// form without re-solicitation (found by internal/chaos, loss-storm
	// schedules — AHL executes strictly in order, so one starved cst
	// wedges every shard it involves).
	for _, d := range types.SortedDigestKeys(c.csts) {
		cst := c.csts[d]
		if cst.ordered && !cst.decided && now.Sub(cst.lastNudge) > c.cfg.RemoteTimeout {
			cst.lastNudge = now
			c.broadcastToShards(cst.batch, &types.Message{
				Type: types.MsgAHLPrepare, From: c.self, Shard: types.CommitteeShard,
				Seq: cst.gseq, Digest: cst.batch.Digest(), Batch: cst.batch, Cert: cst.cert,
			})
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
	if ok && cst.notified {
		// Already decided; re-broadcast the decision in case it was lost
		// (shards answer the client once they execute).
		c.broadcastToShards(cst.batch, &types.Message{
			Type: types.MsgAHLDecision, From: c.self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: d, Decision: true,
		})
		return
	}
	if ok && cst.ordered {
		// Ordered but votes/decision still in flight: re-broadcast the
		// prepare so shards resend votes.
		c.broadcastToShards(cst.batch, &types.Message{
			Type: types.MsgAHLPrepare, From: c.self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: d, Batch: cst.batch, Cert: cst.cert,
		})
		return
	}
	c.enqueue(b, d)
}

func (c *Committee) enqueue(b *types.Batch, d types.Digest) {
	if _, done := c.proposed[d]; done {
		return
	}
	if _, ok := c.awaiting[d]; !ok {
		c.awaiting[d] = &pending{batch: b, since: c.clock()}
	}
	if c.engine.IsPrimary() && !c.engine.InViewChange() {
		c.propose(b, d)
	}
}

func (c *Committee) propose(b *types.Batch, d types.Digest) {
	if _, done := c.proposed[d]; done {
		return
	}
	// Pipelined consensus: the same drain discipline as internal/ringbft —
	// the primary keeps at most PipelineDepth proposals in flight and
	// parks the rest for tryProposeQueued.
	if c.engine.InFlight() >= c.cfg.PipelineDepth {
		c.queue = append(c.queue, b)
		return
	}
	if _, err := c.engine.Propose(b); err != nil {
		c.queue = append(c.queue, b)
		return
	}
	c.proposed[d] = struct{}{}
}

func (c *Committee) tryProposeQueued() {
	if !c.engine.IsPrimary() || c.engine.InViewChange() {
		return
	}
	for len(c.queue) > 0 {
		if c.engine.InFlight() >= c.cfg.PipelineDepth {
			return // pipeline window full: a commit frees the next slot
		}
		b := c.queue[0]
		d := b.Digest()
		if _, done := c.proposed[d]; done {
			c.queue = c.queue[1:]
			continue
		}
		if _, err := c.engine.Propose(b); err != nil {
			return
		}
		c.proposed[d] = struct{}{}
		c.queue = c.queue[1:]
	}
}

func (c *Committee) repropose() {
	if !c.engine.IsPrimary() {
		return
	}
	// Sorted-digest order: sequence assignment must not depend on map
	// iteration order, or identically seeded runs diverge.
	ds := make([]types.Digest, 0, len(c.awaiting))
	for d := range c.awaiting {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
	for _, d := range ds {
		if _, done := c.proposed[d]; !done {
			c.propose(c.awaiting[d].batch, d)
		}
	}
	c.tryProposeQueued()
}

// onCommitted handles both committee consensus outcomes: a freshly ordered
// cst (phase 1: broadcast AHLPrepare) and a committed decision batch
// (phase 3: broadcast AHLDecision).
func (c *Committee) onCommitted(seq types.SeqNum, batch *types.Batch, cert []types.Signed) {
	c.tracker.Committed(c.engine, seq, batch)
	if d, commit, ok := parseDecision(batch); ok {
		cst, ok := c.csts[d]
		if !ok || cst.notified {
			return
		}
		cst.decided = true
		delete(c.awaiting, batch.Digest())
		if !cst.ordered {
			// Consensus results can commit out of order: the decision may
			// land before this member processes the original batch's
			// ordering, in which case the batch content (and its involved
			// shards) is not known yet. Defer the broadcast until it is.
			cst.pendingNotify = commit
			return
		}
		cst.notified = true
		c.broadcastToShards(cst.batch, &types.Message{
			Type: types.MsgAHLDecision, From: c.self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: d, Decision: commit,
		})
		return
	}
	if len(batch.Txns) == 0 {
		return
	}
	d := batch.Digest()
	delete(c.awaiting, d)
	c.proposed[d] = struct{}{}
	cst, ok := c.csts[d]
	if !ok {
		cst = &committeeCst{votes: make(map[types.ShardID]map[types.NodeID]struct{})}
		c.csts[d] = cst
	}
	cst.batch = batch
	cst.gseq = seq
	cst.cert = cert
	cst.ordered = true
	cst.lastNudge = c.clock() // the ordering broadcast below counts as attempt one
	// Phase 1 of 2PC: prepare at every replica of every involved shard. The
	// commit certificate makes the order transferable.
	c.broadcastToShards(batch, &types.Message{
		Type: types.MsgAHLPrepare, From: c.self, Shard: types.CommitteeShard,
		Seq: seq, Digest: d, Batch: batch, Cert: cert,
	})
	if cst.decided && !cst.notified {
		// The decision committed before the ordering did (deferred above).
		cst.notified = true
		c.broadcastToShards(cst.batch, &types.Message{
			Type: types.MsgAHLDecision, From: c.self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: d, Decision: cst.pendingNotify,
		})
		return
	}
	c.maybeDecide(cst)
}

// broadcastToShards signs m and sends it to every replica of every shard
// involved in b.
func (c *Committee) broadcastToShards(b *types.Batch, m *types.Message) {
	m.Sig = crypto.SignMessage(c.auth, m)
	for _, s := range b.Involved {
		if int(s) < 0 || int(s) >= len(c.shardPeers) {
			continue
		}
		for _, to := range c.shardPeers[s] {
			c.send(to, m)
		}
	}
}

// onVote records one shard replica's 2PC vote.
func (c *Committee) onVote(m *types.Message) {
	if m.From.Kind != types.KindReplica {
		return
	}
	if crypto.VerifyMessageSig(c.auth, m) != nil {
		return
	}
	cst, ok := c.csts[m.Digest]
	if !ok {
		cst = &committeeCst{votes: make(map[types.ShardID]map[types.NodeID]struct{})}
		c.csts[m.Digest] = cst
	}
	if cst.notified {
		// The voter missed the decision broadcast (its shard's execution
		// pipeline is blocked on this cst); answer it directly.
		reply := &types.Message{
			Type: types.MsgAHLDecision, From: c.self, Shard: types.CommitteeShard,
			Seq: cst.gseq, Digest: m.Digest, Decision: true,
		}
		reply.Sig = crypto.SignMessage(c.auth, reply)
		c.send(m.From, reply)
		return
	}
	if !m.Decision {
		return // commit-only simplification; see package comment
	}
	sv, ok := cst.votes[m.From.Shard]
	if !ok {
		sv = make(map[types.NodeID]struct{})
		cst.votes[m.From.Shard] = sv
	}
	sv[m.From] = struct{}{}
	c.maybeDecide(cst)
}

// maybeDecide starts the decision consensus once f+1 replicas of every
// involved shard voted commit.
func (c *Committee) maybeDecide(cst *committeeCst) {
	if !cst.ordered || cst.decided {
		return
	}
	for _, s := range cst.batch.Involved {
		if len(cst.votes[s]) < c.cfg.F()+1 {
			return
		}
	}
	cst.decided = true
	db := decisionBatch(cst.batch.Digest(), true)
	c.enqueue(db, db.Digest())
}

func clientOf(b *types.Batch) types.NodeID {
	return types.ClientNode(b.Txns[0].ID.Client)
}
