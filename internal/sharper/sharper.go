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

// Sender abstracts the network.
type Sender = host.Sender

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
	// WAL-logged, snapshots cut every CheckpointInterval executed sequences,
	// and a restarted replica resumes from the recovered state. Stragglers
	// that consensus alone cannot repair additionally fetch the blocks they
	// miss from a peer (catchup.go).
	Durability *wal.Manager
	Recovered  *wal.Recovered

	// Evidence is the misbehavior evidence log (nil = fresh in-memory log).
	Evidence *evidence.Log

	// Metrics/Tracer enable live observability (see the equivalent fields
	// on ringbft.Options). Both optional; pure side effects.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Replica is one Sharper replica. Committed entries execute strictly in
// local sequence order (host.Sequential); a cross-shard entry blocks until
// its global all-to-all rounds complete.
type Replica struct {
	*host.Sequential

	global map[types.Digest]*globalState
}

// globalState tracks the two cross-shard all-to-all rounds for one cst.
type globalState struct {
	batch *types.Batch
	// prepares and commits hold each replica's counted vote of the round,
	// whose signature verified (this replica's own included); a
	// retransmitted copy with the same bytes is compared with it, not
	// verified again.
	prepares  map[types.NodeID]*types.Message
	commits   map[types.NodeID]*types.Message
	nudged    map[types.NodeID]struct{} // peers already re-served (damping)
	committed bool
	// prep and commit are this replica's signed votes, nil until sent;
	// every retransmission sends these same bytes.
	prep, commit *types.Message
	// proposal is the coordination proposal: at the initiator the one this
	// replica signed, which every re-coordination sends again; at another
	// involved shard the first one verified, which a re-sent copy with the
	// same bytes is compared with.
	proposal *types.Message
	// lastNudge paces head-of-line vote re-broadcast (see HandleTick).
	lastNudge time.Time
}

// New creates a Sharper replica.
func New(opts Options) *Replica {
	r := &Replica{global: make(map[types.Digest]*globalState)}
	r.Sequential = host.NewSequential(host.Options{
		Config: opts.Config, Shard: opts.Shard, Self: opts.Self, Peers: opts.Peers,
		Auth: opts.Auth, Send: opts.Send, Clock: opts.Clock,
		Durability: opts.Durability, Recovered: opts.Recovered, Evidence: opts.Evidence,
		Obs:     host.NewObs(opts.Metrics, opts.Tracer, "sharper", opts.Shard, opts.Self),
		Handler: r,
		// Sharper carries no justification certificates (its coordinator
		// proposals replicate through ordinary local consensus), but primary
		// equivocation is still detectable and recorded by the kernel.
		Callbacks:        pbft.Callbacks{Committed: r.onCommitted},
		ReproposeExpired: true,
		Transfer:         &host.Transfer{Serve: r.serveBlocks, Check: r.checkBlocks, Install: r.installBlocks},
	}, func(_ *types.Batch, d types.Digest) bool {
		gs := r.global[d]
		return gs != nil && gs.committed // the pipeline stalls on the 2-round WAN gate
	})
	return r
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
		r.ServeState(m)
	case types.MsgStateSnapshot:
		r.AcceptState(m)
	default:
		r.PBFT.OnMessage(m)
		r.Drain()
	}
}

// HandleTick drives the local watchdog.
func (r *Replica) HandleTick(now time.Time) {
	r.Tick(now)
	r.maybeCatchup(now)
	if !r.Watchdog(now) {
		return
	}
	// Head-of-line renudge: Sharper executes strictly in sequence order and
	// its global rounds have no protocol timer — recovery normally rides on
	// client retries (renudge via onClientRequest). Under a loss storm the
	// retries themselves get dropped, so one starved cst at the head of the
	// execution pipeline wedges the shard; re-broadcast our votes for it,
	// paced like the client path (found by internal/chaos, loss-storm
	// schedules).
	if e, ok := r.Entries[r.ExecNext+1]; ok && len(e.Batch.Txns) > 0 && e.Batch.IsCrossShard() {
		b := e.Batch
		if gs, ok := r.global[e.Digest]; ok && !gs.committed &&
			now.Sub(gs.lastNudge) > r.Cfg.LocalTimeout {
			gs.lastNudge = now
			r.Obs.Retransmits.Inc()
			r.renudge(gs)
			if b.Initiator() == r.Shard && r.PBFT.IsPrimary() {
				// A stalled global round can also mean another involved
				// shard never replicated the batch at all (every copy of
				// the coordination proposal was lost): re-coordinate.
				r.coordinate(b, e.Digest)
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
	if res, ok := r.Results[d]; ok {
		r.Respond(host.ClientOf(b), d, res)
		return
	}
	if gs, ok := r.global[d]; ok && !gs.committed {
		// Client retransmission while the global rounds are in flight:
		// re-send our votes in case the first copies were lost.
		r.renudge(gs)
	}
	if !b.Involves(r.Shard) || b.Initiator() != r.Shard {
		fwd := *m
		fwd.From = r.Self
		r.Send(types.ReplicaNode(b.Initiator(), 0), &fwd)
		return
	}
	r.Enqueue(b, d)
	// The initiator primary coordinates: propose to the primaries of the
	// other involved shards so they replicate it too.
	if b.IsCrossShard() && r.PBFT.IsPrimary() {
		r.coordinate(b, d)
	}
}

// coordinate sends the initiator primary's SharperPropose to every other
// involved shard's primary.
func (r *Replica) coordinate(b *types.Batch, d types.Digest) {
	gs := r.globalState(d, b)
	if gs.prep != nil && gs.commit != nil {
		return
	}
	if gs.proposal == nil {
		gs.proposal = &types.Message{
			Type: types.MsgSharperPropose, From: r.Self, Shard: r.Shard,
			Digest: d, Batch: b,
		}
		gs.proposal.Sig = crypto.SignMessage(r.Auth, gs.proposal)
	}
	for _, s := range b.Involved {
		if s == r.Shard {
			continue
		}
		// Every replica of the involved shard, not just index 0: the
		// coordinator cannot know the remote shard's current view, and a
		// proposal addressed to a deposed (or straggling) primary dies in
		// its awaiting map. Backups that receive it park it in their own
		// awaiting, whose timer pressures their primary the usual way
		// (found by internal/chaos, loss-storm schedules).
		for _, to := range r.peersOf(s) {
			r.Send(to, gs.proposal)
		}
	}
}

// peersOf lists every replica of shard s (same replica count per shard).
func (r *Replica) peersOf(s types.ShardID) []types.NodeID {
	out := make([]types.NodeID, len(r.Peers))
	for i := range r.Peers {
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
	if d != m.Digest || !b.Involves(r.Shard) || b.Initiator() == r.Shard {
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != b.Initiator() {
		return
	}
	var held *types.Message
	if gs := r.global[d]; gs != nil {
		held = gs.proposal
	}
	if crypto.VerifyResent(r.Auth, m, held) != nil {
		return
	}
	if gs := r.globalState(d, b); gs.proposal == nil {
		gs.proposal = m
	}
	r.Enqueue(b, d)
}

func (r *Replica) globalState(d types.Digest, b *types.Batch) *globalState {
	gs, ok := r.global[d]
	if !ok {
		gs = &globalState{
			prepares: make(map[types.NodeID]*types.Message),
			commits:  make(map[types.NodeID]*types.Message),
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
func (r *Replica) onCommitted(seq types.SeqNum, batch *types.Batch, d types.Digest, _ *pbft.Cert) {
	r.Commit(seq, batch, d)
	if batch.IsCrossShard() {
		gs := r.globalState(d, batch)
		gs.lastNudge = r.Clock() // the prepare broadcast counts as attempt one
		r.sendCrossRound(gs, types.MsgSharperPrepare)
	}
	r.DrainExec()
}

// sendCrossRound broadcasts a cross-shard vote to every replica of every
// involved shard — the quadratic pattern RingBFT's evaluation attributes
// Sharper's WAN degradation to.
func (r *Replica) sendCrossRound(gs *globalState, t types.MsgType) {
	sent, votes := &gs.prep, gs.prepares
	if t == types.MsgSharperCommit {
		sent, votes = &gs.commit, gs.commits
	}
	if *sent != nil {
		return
	}
	m := &types.Message{Type: t, From: r.Self, Shard: r.Shard, Digest: gs.batch.Digest()}
	m.Sig = crypto.SignMessage(r.Auth, m)
	*sent, votes[r.Self] = m, m
	r.broadcastVote(gs, m)
	r.evaluate(gs)
}

// broadcastVote sends vote m to every other replica of every shard involved
// in gs's batch.
func (r *Replica) broadcastVote(gs *globalState, m *types.Message) {
	for _, s := range gs.batch.Involved {
		for i := 0; i < r.Cfg.ReplicasPerShard; i++ {
			if to := types.ReplicaNode(s, i); to != r.Self {
				r.Send(to, m)
			}
		}
	}
}

// onCrossVote records one replica's cross-shard prepare/commit vote.
func (r *Replica) onCrossVote(m *types.Message, commit bool) {
	if m.From.Kind != types.KindReplica {
		return
	}
	var held *types.Message
	if gs := r.global[m.Digest]; gs != nil {
		held = gs.votes(commit)[m.From]
	}
	if crypto.VerifyResent(r.Auth, m, held) != nil {
		return
	}
	gs, ok := r.global[m.Digest]
	if !ok {
		// Votes can outrun our local consensus; buffer them.
		gs = r.globalState(m.Digest, nil)
	}
	votes := gs.votes(commit)
	if _, dup := votes[m.From]; dup {
		// A re-transmitted vote means the sender is starved of ours
		// (partial communication); resend our votes to that sender, once
		// per cst, so two healthy replicas cannot ping-pong forever.
		if gs.nudged == nil {
			gs.nudged = make(map[types.NodeID]struct{})
		}
		if _, done := gs.nudged[m.From]; !done {
			gs.nudged[m.From] = struct{}{}
			r.Obs.Retransmits.Inc()
			r.resendVotesTo(m.From, gs)
		}
		return
	}
	votes[m.From] = m
	r.evaluate(gs)
}

// votes returns the counted votes of the commit round, or of the prepare
// round.
func (gs *globalState) votes(commit bool) map[types.NodeID]*types.Message {
	if commit {
		return gs.commits
	}
	return gs.prepares
}

// resendVotesTo retransmits this replica's cross-shard votes to one peer.
func (r *Replica) resendVotesTo(to types.NodeID, gs *globalState) {
	if gs.batch == nil {
		return
	}
	for _, m := range []*types.Message{gs.prep, gs.commit} {
		if m != nil {
			r.Send(to, m)
		}
	}
}

// evaluate advances the global rounds: nf prepares from each involved shard
// unlock the commit round; nf commits from each unlock execution.
func (r *Replica) evaluate(gs *globalState) {
	if gs.batch == nil || gs.committed {
		return
	}
	if gs.commit == nil && gs.prep != nil && r.quorumPerShard(gs.batch, gs.prepares) {
		r.sendCrossRound(gs, types.MsgSharperCommit)
	}
	if gs.commit != nil && r.quorumPerShard(gs.batch, gs.commits) {
		gs.committed = true
		r.DrainExec()
	}
}

// renudge rebroadcasts this replica's cross-shard votes for a stalled cst
// (retransmission under message loss; the protocol itself has no timer for
// these rounds, so the client's retry drives recovery).
func (r *Replica) renudge(gs *globalState) {
	if gs.batch == nil || gs.committed {
		return
	}
	for _, m := range []*types.Message{gs.prep, gs.commit} {
		if m != nil {
			r.broadcastVote(gs, m)
		}
	}
}

// quorumPerShard reports whether votes contains nf distinct voters from
// every involved shard.
func (r *Replica) quorumPerShard(b *types.Batch, votes map[types.NodeID]*types.Message) bool {
	counts := make(map[types.ShardID]int, len(b.Involved))
	for v := range votes {
		counts[v.Shard]++
	}
	for _, s := range b.Involved {
		if counts[s] < r.Cfg.NF() {
			return false
		}
	}
	return true
}
