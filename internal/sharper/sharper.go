// Package sharper implements the Sharper baseline (Amiri et al., Section 2
// "Initiator Shard"): cross-shard transactions are coordinated by the
// primary of one involved shard, which proposes to the primaries of the
// other involved shards; each shard replicates the transaction locally, and
// then the replicas of all involved shards run two rounds of global
// all-to-all communication (cross-shard prepare and commit) before
// execution. This all-to-all pattern over WAN links — quadratic in the
// number of involved replicas — is exactly the cost RingBFT's linear,
// neighbour-to-neighbour ring communication removes.
//
// Simplifications relative to the (closed-source) original, recorded in
// DESIGN.md: execution uses locally available reads (Sharper does not ship
// remote read values; complex cst support "remains an open problem" per
// Section 8.8), and conflicting transactions from different initiator shards
// are serialized by each shard's local log rather than a cross-shard
// slot-reservation scheme.
package sharper

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

// Sender abstracts the network.
type Sender func(to types.NodeID, m *types.Message)

// Options configures a Replica.
type Options struct {
	Config types.Config
	Shard  types.ShardID
	Self   types.NodeID
	Peers  []types.NodeID
	Auth   crypto.Authenticator
	Send   Sender
	Clock  func() time.Time

	// Durability/Recovered come from wal.OpenManager: executed blocks are
	// WAL-logged, snapshots cut every SnapshotInterval executed sequences,
	// and a restarted replica resumes from the recovered state. Stragglers
	// that consensus alone cannot repair additionally use the peer block
	// transfer in catchup.go.
	Durability *wal.Manager
	Recovered  *wal.Recovered

	// Evidence is the misbehavior evidence log (nil = fresh in-memory log).
	Evidence *evidence.Log

	// Metrics/Tracer enable live observability (see the equivalent fields
	// on ringbft.Options). Both optional; pure side effects.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Replica is one Sharper replica.
type Replica struct {
	cfg      types.Config
	shard    types.ShardID
	self     types.NodeID
	peers    []types.NodeID
	auth     crypto.Authenticator
	verifier *crypto.Verifier
	send     Sender
	clock    func() time.Time

	engine  *pbft.Engine
	tracker *pbft.CheckpointTracker
	kv      *store.KV
	chain   *ledger.Chain

	// Local execution pipeline: committed entries execute strictly in local
	// sequence order; a cross-shard entry blocks until its global all-to-all
	// rounds complete.
	execNext types.SeqNum
	entries  map[types.SeqNum]*entry

	global   map[types.Digest]*globalState
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

	// Peer block transfer (catchup.go): the most recent checkpoint
	// certificate observed (served to starved peers), the request pacer,
	// and the installs counter.
	lastCert       *checkpointCert
	lastXfer       time.Time
	stateTransfers int64

	// ev is the misbehavior evidence log (always non-nil; see
	// internal/evidence).
	ev *evidence.Log

	viewChanges int64
	retransmits int64

	obs *hostObs
}

type entry struct {
	seq   types.SeqNum
	batch *types.Batch
}

type pending struct {
	batch *types.Batch
	since time.Time
}

// globalState tracks the two cross-shard all-to-all rounds for one cst.
type globalState struct {
	batch      *types.Batch
	prepares   map[types.NodeID]struct{}
	commits    map[types.NodeID]struct{}
	nudged     map[types.NodeID]struct{} // peers already re-served (damping)
	prepSent   bool
	commitSent bool
	committed  bool
	// lastNudge paces head-of-line vote re-broadcast (see HandleTick).
	lastNudge time.Time
}

// New creates a Sharper replica.
func New(opts Options) *Replica {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	verifier := crypto.NewVerifier(opts.Auth)
	ev := opts.Evidence
	if ev == nil {
		ev = evidence.NewMemory()
	}
	r := &Replica{
		ev:       ev,
		cfg:      opts.Config,
		shard:    opts.Shard,
		self:     opts.Self,
		peers:    opts.Peers,
		auth:     verifier,
		verifier: verifier,
		send:     opts.Send,
		clock:    opts.Clock,
		kv:       store.NewKV(),
		chain:    ledger.NewChain(opts.Shard),
		entries:  make(map[types.SeqNum]*entry),
		global:   make(map[types.Digest]*globalState),
		executed: make(map[types.Digest][]types.Value),
		awaiting: make(map[types.Digest]*pending),
		proposed: make(map[types.Digest]struct{}),
		tracker:  pbft.NewCheckpointTracker(opts.Config.CheckpointInterval),
		dur:      opts.Durability,
		rec:      opts.Recovered,
		snapEvery: func() types.SeqNum {
			if opts.Config.SnapshotInterval > 0 {
				return opts.Config.SnapshotInterval
			}
			return opts.Config.CheckpointInterval
		}(),
	}
	r.obs = newHostObs(opts.Metrics, opts.Tracer, opts.Shard, opts.Self)
	r.engine = pbft.New(opts.Shard, opts.Self, opts.Peers, opts.Auth, pbft.Callbacks{
		Send:       func(to types.NodeID, m *types.Message) { r.send(to, m) },
		Committed:  r.onCommitted,
		Stabilized: r.onStabilized,
		ViewChanged: func(types.View) {
			r.viewChanges++
			r.obs.incViewChanges()
			r.lastVC = r.clock()
			r.reproposeAwaiting()
		},
		// Sharper carries no justification certificates (its coordinator
		// proposals replicate through ordinary local consensus), but primary
		// equivocation is still detectable and recorded.
		Equivocation: func(first, second *types.Message) {
			r.ev.Add(evidence.Record{
				Kind: evidence.KindEquivocation, Accused: first.From,
				Shard: r.shard, View: first.View, Seq: first.Seq,
				First: evidence.MsgOf(first), Second: evidence.MsgOf(second),
			})
		},
	}, pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout, Verifier: verifier, OnPhase: r.obs.phase(opts.Shard)})
	return r
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
// a snapshot plus the WAL tail (wal.ApplySequential — Sharper executes
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
// SnapshotInterval executed sequences (pruning the chain and collecting
// covered WAL segments).
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

// ExecutedThrough returns the executed-prefix watermark (Sharper executes
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

// RetransmitCount reports message retransmissions (read after Run returns).
func (r *Replica) RetransmitCount() int64 { return r.retransmits }

// StateTransferCount reports installed peer block transfers (read after Run
// returns).
func (r *Replica) StateTransferCount() int64 { return r.stateTransfers }

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
	case types.MsgSharperPropose:
		r.onPropose(m)
	case types.MsgSharperPrepare:
		r.onCrossVote(m, false)
	case types.MsgSharperCommit:
		r.onCrossVote(m, true)
	case types.MsgStateRequest:
		r.onStateRequest(m)
	case types.MsgStateSnapshot:
		r.onStateSnapshot(m)
	default:
		r.engine.OnMessage(m)
		r.tryProposeQueued()
	}
}

// HandleTick drives the local watchdog.
func (r *Replica) HandleTick(now time.Time) {
	r.engine.Tick(now)
	r.tryProposeQueued()
	r.maybeCatchup(now)
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
				expired = true
				if r.engine.IsPrimary() {
					// The proposed latch may date from a previous primacy
					// of this member whose proposal died with its view;
					// after enough view changes every member is latched and
					// the batch can never be proposed again (found by
					// internal/chaos, loss-storm schedules). Clear it so
					// this primary re-proposes.
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
	// Head-of-line renudge: Sharper executes strictly in sequence order and
	// its global rounds have no protocol timer — recovery normally rides on
	// client retries (renudge via onClientRequest). Under a loss storm the
	// retries themselves get dropped, so one starved cst at the head of the
	// execution pipeline wedges the shard; re-broadcast our votes for it,
	// paced like the client path (found by internal/chaos, loss-storm
	// schedules).
	if e, ok := r.entries[r.execNext+1]; ok && e.batch != nil &&
		len(e.batch.Txns) > 0 && e.batch.IsCrossShard() {
		if gs, ok := r.global[e.batch.Digest()]; ok && !gs.committed &&
			now.Sub(gs.lastNudge) > r.cfg.LocalTimeout {
			gs.lastNudge = now
			r.retransmits++
			r.obs.incRetransmits()
			r.renudge(gs)
			if e.batch.Initiator() == r.shard && r.engine.IsPrimary() {
				// A stalled global round can also mean another involved
				// shard never replicated the batch at all (every copy of
				// the coordination proposal was lost): re-coordinate.
				r.coordinate(e.batch, e.batch.Digest())
			}
		}
	}
}

func (r *Replica) onClientRequest(m *types.Message) {
	if m.Batch == nil || len(m.Batch.Txns) == 0 {
		return
	}
	b := m.Batch
	d := b.Digest()
	if res, ok := r.executed[d]; ok {
		r.respond(clientOf(b), d, res)
		return
	}
	if gs, ok := r.global[d]; ok && !gs.committed {
		// Client retransmission while the global rounds are in flight:
		// re-send our votes in case the first copies were lost.
		r.renudge(gs)
	}
	if !b.Involves(r.shard) || b.Initiator() != r.shard {
		fwd := *m
		fwd.From = r.self
		r.send(types.ReplicaNode(b.Initiator(), 0), &fwd)
		return
	}
	r.enqueue(b, d)
	// The initiator primary coordinates: propose to the primaries of the
	// other involved shards so they replicate it too.
	if b.IsCrossShard() && r.engine.IsPrimary() {
		r.coordinate(b, d)
	}
}

// coordinate sends the initiator primary's SharperPropose to every other
// involved shard's primary.
func (r *Replica) coordinate(b *types.Batch, d types.Digest) {
	gs := r.globalState(d, b)
	if gs.prepSent && gs.commitSent {
		return
	}
	prop := &types.Message{
		Type: types.MsgSharperPropose, From: r.self, Shard: r.shard,
		Digest: d, Batch: b,
	}
	prop.Sig = crypto.SignMessage(r.auth, prop)
	for _, s := range b.Involved {
		if s == r.shard {
			continue
		}
		// Every replica of the involved shard, not just index 0: the
		// coordinator cannot know the remote shard's current view, and a
		// proposal addressed to a deposed (or straggling) primary dies in
		// its awaiting map. Backups that receive it park it in their own
		// awaiting, whose timer pressures their primary the usual way
		// (found by internal/chaos, loss-storm schedules).
		for _, to := range r.peersOf(s) {
			r.send(to, prop)
		}
	}
}

// peersOf lists every replica of shard s (same replica count per shard).
func (r *Replica) peersOf(s types.ShardID) []types.NodeID {
	out := make([]types.NodeID, len(r.peers))
	for i := range r.peers {
		out[i] = types.ReplicaNode(s, i)
	}
	return out
}

// onPropose handles the coordinator's proposal at another involved shard.
func (r *Replica) onPropose(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 || !b.IsCrossShard() {
		return
	}
	d := b.Digest()
	if d != m.Digest || !b.Involves(r.shard) || b.Initiator() == r.shard {
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != b.Initiator() {
		return
	}
	if crypto.VerifyMessageSig(r.auth, m) != nil {
		return
	}
	r.globalState(d, b)
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

func (r *Replica) reproposeAwaiting() {
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

func (r *Replica) globalState(d types.Digest, b *types.Batch) *globalState {
	gs, ok := r.global[d]
	if !ok {
		gs = &globalState{
			prepares: make(map[types.NodeID]struct{}),
			commits:  make(map[types.NodeID]struct{}),
		}
		r.global[d] = gs
	}
	if gs.batch == nil {
		gs.batch = b
	}
	return gs
}

// onCommitted: local replication finished. Single-shard entries head to the
// execution pipeline; cross-shard entries additionally start the global
// all-to-all prepare round across every replica of every involved shard.
func (r *Replica) onCommitted(seq types.SeqNum, batch *types.Batch, _ []types.Signed) {
	d := batch.Digest()
	delete(r.awaiting, d)
	r.proposed[d] = struct{}{}
	r.entries[seq] = &entry{seq: seq, batch: batch}
	r.tracker.Committed(r.engine, seq, batch)
	if batch.IsCrossShard() {
		gs := r.globalState(d, batch)
		gs.lastNudge = r.clock() // the prepare broadcast counts as attempt one
		r.sendCrossRound(gs, types.MsgSharperPrepare)
	}
	r.drainExec()
}

// sendCrossRound broadcasts a cross-shard vote to every replica of every
// involved shard — the quadratic pattern RingBFT's evaluation attributes
// Sharper's WAN degradation to.
func (r *Replica) sendCrossRound(gs *globalState, t types.MsgType) {
	if t == types.MsgSharperPrepare {
		if gs.prepSent {
			return
		}
		gs.prepSent = true
		gs.prepares[r.self] = struct{}{}
	} else {
		if gs.commitSent {
			return
		}
		gs.commitSent = true
		gs.commits[r.self] = struct{}{}
	}
	d := gs.batch.Digest()
	m := &types.Message{Type: t, From: r.self, Shard: r.shard, Digest: d}
	m.Sig = crypto.SignMessage(r.auth, m)
	for _, s := range gs.batch.Involved {
		for i := 0; i < r.cfg.ReplicasPerShard; i++ {
			to := types.ReplicaNode(s, i)
			if to == r.self {
				continue
			}
			r.send(to, m)
		}
	}
	r.evaluate(gs)
}

// onCrossVote records one replica's cross-shard prepare/commit vote.
func (r *Replica) onCrossVote(m *types.Message, commit bool) {
	if m.From.Kind != types.KindReplica {
		return
	}
	if crypto.VerifyMessageSig(r.auth, m) != nil {
		return
	}
	gs, ok := r.global[m.Digest]
	if !ok {
		// Votes can outrun our local consensus; buffer them.
		gs = r.globalState(m.Digest, nil)
	}
	votes := gs.prepares
	if commit {
		votes = gs.commits
	}
	if _, dup := votes[m.From]; dup {
		// A re-transmitted vote means the sender is starved of ours
		// (partial communication); resend our votes to that sender, once
		// per cst, so two healthy replicas cannot ping-pong forever.
		if gs.nudged == nil {
			gs.nudged = make(map[types.NodeID]struct{})
		}
		if _, done := gs.nudged[m.From]; !done {
			gs.nudged[m.From] = struct{}{}
			r.retransmits++
			r.obs.incRetransmits()
			r.resendVotesTo(m.From, gs)
		}
		return
	}
	votes[m.From] = struct{}{}
	r.evaluate(gs)
}

// resendVotesTo retransmits this replica's cross-shard votes to one peer.
func (r *Replica) resendVotesTo(to types.NodeID, gs *globalState) {
	if gs.batch == nil {
		return
	}
	d := gs.batch.Digest()
	for _, round := range []struct {
		sent bool
		t    types.MsgType
	}{{gs.prepSent, types.MsgSharperPrepare}, {gs.commitSent, types.MsgSharperCommit}} {
		if !round.sent {
			continue
		}
		m := &types.Message{Type: round.t, From: r.self, Shard: r.shard, Digest: d}
		m.Sig = crypto.SignMessage(r.auth, m)
		r.send(to, m)
	}
}

// evaluate advances the global rounds: nf prepares from each involved shard
// unlock the commit round; nf commits from each unlock execution.
func (r *Replica) evaluate(gs *globalState) {
	if gs.batch == nil || gs.committed {
		return
	}
	if !gs.commitSent && gs.prepSent && r.quorumPerShard(gs.batch, gs.prepares) {
		r.sendCrossRound(gs, types.MsgSharperCommit)
	}
	if gs.commitSent && r.quorumPerShard(gs.batch, gs.commits) {
		gs.committed = true
		r.drainExec()
	}
}

// renudge rebroadcasts this replica's cross-shard votes for a stalled cst
// (retransmission under message loss; the protocol itself has no timer for
// these rounds, so the client's retry drives recovery).
func (r *Replica) renudge(gs *globalState) {
	if gs.batch == nil || gs.committed {
		return
	}
	d := gs.batch.Digest()
	for _, round := range []struct {
		sent bool
		t    types.MsgType
	}{{gs.prepSent, types.MsgSharperPrepare}, {gs.commitSent, types.MsgSharperCommit}} {
		if !round.sent {
			continue
		}
		m := &types.Message{Type: round.t, From: r.self, Shard: r.shard, Digest: d}
		m.Sig = crypto.SignMessage(r.auth, m)
		for _, s := range gs.batch.Involved {
			for i := 0; i < r.cfg.ReplicasPerShard; i++ {
				to := types.ReplicaNode(s, i)
				if to != r.self {
					r.send(to, m)
				}
			}
		}
	}
}

// quorumPerShard reports whether votes contains nf distinct voters from
// every involved shard.
func (r *Replica) quorumPerShard(b *types.Batch, votes map[types.NodeID]struct{}) bool {
	counts := make(map[types.ShardID]int, len(b.Involved))
	for v := range votes {
		counts[v.Shard]++
	}
	for _, s := range b.Involved {
		if counts[s] < r.cfg.NF() {
			return false
		}
	}
	return true
}

// drainExec executes committed entries strictly in local sequence order; a
// cross-shard entry gates the pipeline until its global rounds complete.
func (r *Replica) drainExec() {
	for {
		e, ok := r.entries[r.execNext+1]
		if !ok {
			return
		}
		b := e.batch
		if len(b.Txns) > 0 && b.IsCrossShard() {
			gs := r.global[b.Digest()]
			if gs == nil || !gs.committed {
				return // pipeline stalls on the 2-round WAN gate
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

func clientOf(b *types.Batch) types.NodeID {
	return types.ClientNode(b.Txns[0].ID.Client)
}

// Debug returns internal counters for diagnosis: local execution watermark,
// committed-but-unexecuted entries, and proposal bookkeeping sizes.
func (r *Replica) Debug() (execNext types.SeqNum, pendingEntries, awaiting, queued, proposed int) {
	return r.execNext, len(r.entries), len(r.awaiting), len(r.queue), len(r.proposed)
}

// DebugEngine exposes engine state for diagnosis.
func (r *Replica) DebugEngine() (view types.View, invc bool, stable types.SeqNum, votes map[types.SeqNum]int, uncommitted int) {
	return r.engine.View(), r.engine.InViewChange(), r.engine.StableSeq(), r.engine.CheckpointVotes(), r.engine.UncommittedInWindow()
}
