package ahl

import (
	"bytes"
	"context"
	"sort"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/ledger"
	"ringbft/internal/metrics"
	"ringbft/internal/pbft"
	"ringbft/internal/store"
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
	// WAL-logged, snapshots cut every SnapshotInterval executed sequences,
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
	cfg       types.Config
	shard     types.ShardID
	self      types.NodeID
	peers     []types.NodeID
	committee []types.NodeID
	auth      crypto.Authenticator
	verifier  *crypto.Verifier
	send      Sender
	clock     func() time.Time

	engine  *pbft.Engine
	tracker *pbft.CheckpointTracker
	kv      *store.KV
	chain   *ledger.Chain

	execNext types.SeqNum
	entries  map[types.SeqNum]*entry

	// cross-shard 2PC state by digest.
	csts     map[types.Digest]*replicaCst
	executed map[types.Digest][]types.Value

	awaiting map[types.Digest]*pending
	proposed map[types.Digest]struct{}
	queue    []*types.Batch

	dur       *wal.Manager
	rec       *wal.Recovered
	snapEvery types.SeqNum
	lastSnap  types.SeqNum

	// lastVC paces the awaiting-proposal watchdog: each installed view
	// gets a full LocalTimeout before the next view-change demand (see the
	// equivalent note in internal/ringbft).
	lastVC time.Time

	// ev is the misbehavior evidence log (always non-nil; see
	// internal/evidence).
	ev *evidence.Log

	viewChanges int64

	obs *hostObs
}

type entry struct {
	seq   types.SeqNum
	batch *types.Batch
}

type replicaCst struct {
	batch     *types.Batch
	prepares  map[types.NodeID]struct{} // committee members whose AHLPrepare we saw
	accepted  bool
	voted     bool
	decisions map[types.NodeID]struct{}
	decided   bool
	// cert is the committee's commit certificate from the first verified
	// AHLPrepare: the justification for replicating this cross-shard batch
	// locally, carried into view-change P-set proofs so a NewView can prove
	// it to replicas the prepare broadcast never reached.
	cert []types.Signed
	// lastNudge paces head-of-line vote retransmission (see HandleTick).
	lastNudge time.Time
}

// NewReplica creates an AHL shard replica.
func NewReplica(opts ReplicaOptions) *Replica {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	verifier := crypto.NewVerifier(opts.Auth)
	ev := opts.Evidence
	if ev == nil {
		ev = evidence.NewMemory()
	}
	r := &Replica{
		cfg:       opts.Config,
		shard:     opts.Shard,
		self:      opts.Self,
		peers:     opts.Peers,
		committee: opts.Committee,
		auth:      verifier,
		verifier:  verifier,
		send:      opts.Send,
		clock:     opts.Clock,
		kv:        store.NewKV(),
		chain:     ledger.NewChain(opts.Shard),
		entries:   make(map[types.SeqNum]*entry),
		csts:      make(map[types.Digest]*replicaCst),
		executed:  make(map[types.Digest][]types.Value),
		awaiting:  make(map[types.Digest]*pending),
		proposed:  make(map[types.Digest]struct{}),
		tracker:   pbft.NewCheckpointTracker(opts.Config.CheckpointInterval),
		dur:       opts.Durability,
		rec:       opts.Recovered,
		snapEvery: opts.Config.SnapshotInterval,
		ev:        ev,
	}
	if r.snapEvery <= 0 {
		r.snapEvery = opts.Config.CheckpointInterval
	}
	r.obs = newHostObs(opts.Metrics, opts.Tracer, opts.Shard, opts.Self)
	r.engine = pbft.New(opts.Shard, opts.Self, opts.Peers, opts.Auth, pbft.Callbacks{
		Send:      func(to types.NodeID, m *types.Message) { r.send(to, m) },
		Committed: r.onCommitted,
		ViewChanged: func(types.View) {
			r.viewChanges++
			r.obs.incViewChanges()
			r.lastVC = r.clock()
			r.repropose()
		},
		// AHL's analogue of RingBFT's Forward gate: a cross-shard batch may
		// be replicated locally only once the committee's AHLPrepare
		// certificate vouches for it. Without this a Byzantine shard primary
		// commits a cst the committee never ordered — it blocks drainExec
		// forever (no decision will ever arrive for it).
		Justify: func(b *types.Batch) bool { return r.justified(b) },
		Justification: func(b *types.Batch) []types.Signed {
			if b == nil || !b.IsCrossShard() {
				return nil
			}
			if cs, ok := r.csts[b.Digest()]; ok {
				return cs.cert
			}
			return nil
		},
		VerifyJustification: func(b *types.Batch, just []types.Signed) bool {
			if b == nil || !b.IsCrossShard() || len(just) == 0 {
				return false
			}
			return pbft.VerifyCert(r.verifier, types.CommitteeShard, b.Digest(), just, r.cfg.NF()) == nil
		},
		Equivocation: func(first, second *types.Message) {
			r.ev.Add(evidence.Record{
				Kind: evidence.KindEquivocation, Accused: first.From,
				Shard: r.shard, View: first.View, Seq: first.Seq,
				First: evidence.MsgOf(first), Second: evidence.MsgOf(second),
			})
		},
		UnjustifiedNewView: func(m *types.Message, p types.PreparedProof) {
			r.ev.Add(evidence.Record{
				Kind: evidence.KindUnjustifiedNewView, Accused: m.From,
				Shard: r.shard, View: m.View, Seq: p.Seq,
				First: evidence.MsgOf(m),
				Second: evidence.Msg{
					From: m.From, Type: types.MsgPrePrepare, Shard: r.shard,
					View: p.View, Seq: p.Seq, Digest: p.Digest,
				},
				Transferable: true,
			})
		},
	}, pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout, Verifier: verifier, OnPhase: r.obs.phase(opts.Shard)})
	return r
}

// justified reports whether batch b may enter local consensus: cross-shard
// batches need the committee's AHLPrepare acceptance (f+1 members, verified
// certificate — see onPrepare). Single-shard batches always pass.
func (r *Replica) justified(b *types.Batch) bool {
	if b == nil || !b.IsCrossShard() {
		return true
	}
	cs, ok := r.csts[b.Digest()]
	return ok && cs.accepted
}

// Evidence returns the replica's misbehavior evidence log.
func (r *Replica) Evidence() *evidence.Log { return r.ev }

// Preload installs this shard's store partition, then applies any state
// recovered from disk (durable replicas).
func (r *Replica) Preload(records int) {
	r.kv.Preload(r.shard, r.cfg.Shards, records)
	if r.dur != nil && r.rec != nil && !r.rec.Empty() {
		r.applyRecovered(r.rec)
	}
	r.rec = nil
}

// applyRecovered restores the store, ledger, and execution watermark from
// a snapshot plus the WAL tail (wal.ApplySequential — AHL executes
// strictly in sequence order).
func (r *Replica) applyRecovered(rec *wal.Recovered) {
	st := rec.ApplySequential(r.kv, r.chain, r.shard, r.cfg.Shards, func(d types.Digest, res []types.Value) {
		r.executed[d] = res
		r.proposed[d] = struct{}{}
	})
	r.chain = st.Chain
	r.execNext = st.ExecNext
	r.lastSnap = st.LastSnap
	if st.View > 0 {
		r.engine.ForceView(st.View)
	}
	r.engine.ResumeAt(r.execNext, r.execNext+1)
}

// logExecuted durably records an executed block and cuts a snapshot every
// SnapshotInterval executed sequences, pruning the in-memory chain and
// garbage-collecting covered WAL segments.
func (r *Replica) logExecuted(seq types.SeqNum, primary types.NodeID, batch *types.Batch, results []types.Value) {
	if r.dur == nil {
		return
	}
	_ = r.dur.LogBlock(seq, primary, batch, results)
	if r.snapEvery > 0 && seq >= r.lastSnap+r.snapEvery {
		r.chain.Prune(seq)
		snap := wal.SequentialSnapshot(r.shard, seq, r.engine.View(), r.kv, r.chain,
			func(d types.Digest) []types.Value { return r.executed[d] })
		if r.dur.SaveSnapshot(snap) == nil {
			r.lastSnap = seq
		}
	}
}

// Chain returns the replica's ledger.
func (r *Replica) Chain() *ledger.Chain { return r.chain }

// ExecutedThrough returns the executed-prefix watermark (AHL executes
// strictly in local sequence order). Call only after Run returns.
func (r *Replica) ExecutedThrough() types.SeqNum { return r.execNext }

// ExecutedResults returns a deterministic hash of the cached execution
// results per executed batch digest, for cross-replica chaos checkers. Call
// only after Run returns.
func (r *Replica) ExecutedResults() map[types.Digest]uint64 {
	out := make(map[types.Digest]uint64, len(r.executed))
	for d, vals := range r.executed {
		out[d] = types.HashValues(vals)
	}
	return out
}

// Store returns the replica's key-value partition.
func (r *Replica) Store() *store.KV { return r.kv }

// ViewChangeCount reports installed view changes (read after Run returns).
func (r *Replica) ViewChangeCount() int64 { return r.viewChanges }

// RetransmitCount reports retransmissions (none at AHL replicas).
func (r *Replica) RetransmitCount() int64 { return 0 }

// Run drives the replica until ctx is cancelled.
func (r *Replica) Run(ctx context.Context, inbox <-chan *types.Message) {
	tickEvery := r.cfg.LocalTimeout / 4
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
			r.HandleMessage(m)
		case <-ticker.C:
			r.HandleTick(r.clock())
		}
	}
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
		r.engine.OnMessage(m)
		r.tryProposeQueued()
	}
}

// HandleTick drives the watchdog.
func (r *Replica) HandleTick(now time.Time) {
	r.engine.Tick(now)
	r.tryProposeQueued()
	r.obs.sample(len(r.queue), r.ev.Len())
	if r.engine.InViewChange() {
		return
	}
	if now.Sub(r.lastVC) > r.cfg.LocalTimeout {
		expired := false
		// Sorted-digest order: the re-proposal below assigns sequence
		// numbers, which must not depend on map iteration order.
		for _, d := range types.SortedDigestKeys(r.awaiting) {
			p := r.awaiting[d]
			if now.Sub(p.since) > r.cfg.LocalTimeout {
				p.since = now
				// Unjustified entries (committee certificate still in
				// flight) re-arm without escalating: no primary can propose
				// them yet, so view-changing cannot help.
				if !r.justified(p.batch) {
					continue
				}
				expired = true
				if r.engine.IsPrimary() {
					// The proposed latch may date from a previous primacy
					// whose proposal died with its view; after enough view
					// changes every member is latched and the batch can
					// never be proposed again (found by internal/chaos,
					// loss-storm schedules). Clear it and re-propose.
					delete(r.proposed, d)
					r.propose(p.batch, d)
				}
			}
		}
		if expired && !r.engine.IsPrimary() {
			r.engine.StartViewChange(r.engine.View() + 1)
			return
		}
	}
	if oldest, ok := r.engine.OldestUncommitted(); ok && now.Sub(oldest) > r.cfg.LocalTimeout {
		r.engine.StartViewChange(r.engine.View() + 1)
	}
	// Head-of-line nudge: AHL executes strictly in sequence order, so a
	// cross-shard entry whose AHLDecision was lost blocks the whole shard.
	// Re-send the vote — the committee answers a vote for an already-
	// decided cst with the decision directly.
	if e, ok := r.entries[r.execNext+1]; ok && e.batch != nil && e.batch.IsCrossShard() {
		d := e.batch.Digest()
		if cs, ok := r.csts[d]; ok && cs.voted && !cs.decided &&
			now.Sub(cs.lastNudge) > r.cfg.LocalTimeout {
			cs.lastNudge = now
			r.resendVote(cs, d)
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
	if res, ok := r.executed[d]; ok {
		r.respond(clientOf(b), d, res)
		return
	}
	if b.IsCrossShard() {
		fwd := *m
		fwd.From = r.self
		r.send(r.committee[0], &fwd)
		return
	}
	if !b.Involves(r.shard) {
		fwd := *m
		fwd.From = r.self
		r.send(types.ReplicaNode(b.Initiator(), 0), &fwd)
		return
	}
	r.enqueue(b, d)
}

func (r *Replica) enqueue(b *types.Batch, d types.Digest) {
	if _, done := r.proposed[d]; done {
		return
	}
	if _, ok := r.awaiting[d]; !ok {
		r.awaiting[d] = &pending{batch: b, since: r.clock()}
	}
	if r.engine.IsPrimary() && !r.engine.InViewChange() {
		r.propose(b, d)
	}
}

func (r *Replica) propose(b *types.Batch, d types.Digest) {
	if _, done := r.proposed[d]; done {
		return
	}
	if !r.justified(b) {
		// Keep the proposed flag unburnt: the batch stays in awaiting and
		// onPrepare re-enqueues it once the committee certificate arrives
		// (same middle-shard-wedge reasoning as internal/ringbft propose).
		return
	}
	// Pipelined consensus: the same drain discipline as internal/ringbft —
	// at most PipelineDepth proposals in flight, the rest parked for
	// tryProposeQueued.
	if r.engine.InFlight() >= r.cfg.PipelineDepth {
		r.queue = append(r.queue, b)
		return
	}
	if _, err := r.engine.Propose(b); err != nil {
		r.queue = append(r.queue, b)
		return
	}
	r.proposed[d] = struct{}{}
}

func (r *Replica) tryProposeQueued() {
	if !r.engine.IsPrimary() || r.engine.InViewChange() {
		return
	}
	for len(r.queue) > 0 {
		if r.engine.InFlight() >= r.cfg.PipelineDepth {
			return // pipeline window full: a commit frees the next slot
		}
		b := r.queue[0]
		d := b.Digest()
		if _, done := r.proposed[d]; done {
			r.queue = r.queue[1:]
			continue
		}
		if _, err := r.engine.Propose(b); err != nil {
			return
		}
		r.proposed[d] = struct{}{}
		r.queue = r.queue[1:]
	}
}

func (r *Replica) repropose() {
	if !r.engine.IsPrimary() {
		return
	}
	// Sorted-digest order: sequence assignment must not depend on map
	// iteration order, or identically seeded runs diverge.
	ds := make([]types.Digest, 0, len(r.awaiting))
	for d := range r.awaiting {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
	for _, d := range ds {
		if _, done := r.proposed[d]; !done {
			r.propose(r.awaiting[d].batch, d)
		}
	}
	r.tryProposeQueued()
}

func (r *Replica) cst(d types.Digest) *replicaCst {
	cs, ok := r.csts[d]
	if !ok {
		cs = &replicaCst{
			prepares:  make(map[types.NodeID]struct{}),
			decisions: make(map[types.NodeID]struct{}),
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
	if b == nil || len(b.Txns) == 0 || !b.Involves(r.shard) {
		return
	}
	d := b.Digest()
	if d != m.Digest || m.From.Kind != types.KindCommittee {
		return
	}
	if crypto.VerifyMessageSig(r.auth, m) != nil {
		return
	}
	if err := pbft.VerifyCert(r.verifier, types.CommitteeShard, d, m.Cert, r.cfg.NF()); err != nil {
		return
	}
	cs := r.cst(d)
	if cs.batch == nil {
		cs.batch = b
	}
	if cs.cert == nil {
		// One verified copy suffices: the certificate is self-certifying
		// (nf committee commit signatures) and justifies view-change
		// re-proposals of this batch (Justification callback).
		cs.cert = m.Cert
	}
	cs.prepares[m.From] = struct{}{}
	if cs.accepted {
		if cs.voted && !cs.decided {
			// The committee is re-broadcasting its prepare: our earlier
			// vote may have been lost. Resend it.
			r.resendVote(cs, d)
		}
		return
	}
	if len(cs.prepares) <= r.cfg.F() {
		return
	}
	cs.accepted = true
	// The acceptance is the justification the PBFT engine gates cross-shard
	// proposals on; re-feed any PrePrepare that arrived ahead of it.
	r.engine.ReplayParked()
	r.enqueue(b, d)
}

// resendVote retransmits this replica's 2PC commit vote.
func (r *Replica) resendVote(cs *replicaCst, d types.Digest) {
	vote := &types.Message{
		Type: types.MsgAHLVote, From: r.self, Shard: r.shard,
		Digest: d, Decision: true,
	}
	vote.Sig = crypto.SignMessage(r.auth, vote)
	for _, to := range r.committee {
		r.send(to, vote)
	}
}

// onCommitted: local replication done. Single-shard batches execute in
// order; cross-shard batches emit the vote (2PC phase 2) and block the
// execution pipeline until the decision lands.
func (r *Replica) onCommitted(seq types.SeqNum, batch *types.Batch, _ []types.Signed) {
	d := batch.Digest()
	delete(r.awaiting, d)
	r.proposed[d] = struct{}{}
	r.entries[seq] = &entry{seq: seq, batch: batch}
	r.tracker.Committed(r.engine, seq, batch)
	if batch.IsCrossShard() {
		cs := r.cst(d)
		if cs.batch == nil {
			cs.batch = batch
		}
		if !cs.voted {
			cs.voted = true
			cs.lastNudge = r.clock() // this vote counts as attempt one
			vote := &types.Message{
				Type: types.MsgAHLVote, From: r.self, Shard: r.shard,
				Digest: d, Decision: true,
			}
			vote.Sig = crypto.SignMessage(r.auth, vote)
			for _, to := range r.committee {
				r.send(to, vote)
			}
		}
	}
	r.drainExec()
}

// onDecision handles 2PC phase 3: f+1 matching committee decisions commit
// the transaction; the execution pipeline unblocks.
func (r *Replica) onDecision(m *types.Message) {
	if m.From.Kind != types.KindCommittee {
		return
	}
	if crypto.VerifyMessageSig(r.auth, m) != nil {
		return
	}
	cs := r.cst(m.Digest)
	cs.decisions[m.From] = struct{}{}
	if cs.decided || len(cs.decisions) <= r.cfg.F() {
		return
	}
	cs.decided = true
	r.drainExec()
}

// drainExec executes committed entries strictly in local sequence order; a
// cross-shard entry waits for its committee decision, stalling the pipeline
// exactly where AHL's 2PC round-trips bite.
func (r *Replica) drainExec() {
	for {
		e, ok := r.entries[r.execNext+1]
		if !ok {
			return
		}
		b := e.batch
		if len(b.Txns) > 0 && b.IsCrossShard() {
			cs := r.csts[b.Digest()]
			if cs == nil || !cs.decided {
				return
			}
		}
		delete(r.entries, r.execNext+1)
		r.execNext++
		if len(b.Txns) == 0 {
			r.logExecuted(e.seq, r.engine.Primary(r.engine.View()), b, nil)
			continue
		}
		d := b.Digest()
		results := make([]types.Value, len(b.Txns))
		for i := range b.Txns {
			results[i] = r.kv.ExecuteTxnPartial(&b.Txns[i], r.shard, r.cfg.Shards)
		}
		r.executed[d] = results
		r.obs.addExecuted(len(b.Txns))
		r.obs.observe(r.clock(), r.shard, uint64(e.seq), trace.PhaseExecute)
		primary := r.engine.Primary(r.engine.View())
		r.chain.Append(e.seq, primary, b)
		r.logExecuted(e.seq, primary, b, results)
		if b.Initiator() == r.shard {
			r.respond(clientOf(b), d, results)
			r.obs.observe(r.clock(), r.shard, uint64(e.seq), trace.PhaseReply)
		}
	}
}

func (r *Replica) respond(client types.NodeID, d types.Digest, results []types.Value) {
	m := &types.Message{
		Type: types.MsgResponse, From: r.self, Shard: r.shard,
		View: r.engine.View(), Digest: d, Results: results,
	}
	m.MAC = crypto.MACMessage(r.auth, client, m)
	r.send(client, m)
}

// Engine exposes the intra-shard PBFT engine (tests and chaos debugging).
func (r *Replica) Engine() *pbft.Engine { return r.engine }
