// Package host is the per-shard host kernel every sharded protocol wraps
// around its unchanged pbft.Engine: RingBFT's ring layer, AHL's shard
// replicas and reference committee, and Sharper's flattened cross votes all
// run on the same event loop, proposal book, awaiting watchdog, evidence
// wiring and constructor. Every shard replica shares one durable side (WAL
// replay, executed-block recording and the snapshot cut; durable.go), and
// the two sequentially executing baselines share one executor
// (Sequential). Every host drains its proposal queue by one window rule
// (Drain), and every shard replica that catches up from a peer does so by
// one certified state transfer (transfer.go). Only what differs stays in the
// protocol packages: the Justify gate, whether an expired request's
// proposed latch is cleared, a state transfer's trigger and content, and
// everything that happens after a batch commits.
package host

import (
	"context"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Sender abstracts the network so hosts run over simnet or tcpnet.
type Sender func(to types.NodeID, m *types.Message)

// Handler is the protocol node Run drives: its message dispatch and its
// timer tick.
type Handler interface {
	HandleMessage(m *types.Message)
	HandleTick(now time.Time)
}

// Options configures a Kernel. The first block is the node's wiring, the
// second what the protocol plugs into the kernel.
type Options struct {
	Config types.Config
	Shard  types.ShardID
	Self   types.NodeID
	Peers  []types.NodeID // members of Shard's PBFT group; Peers[i].Index == i
	Auth   crypto.Authenticator
	Send   Sender
	Clock  func() time.Time // nil = time.Now

	// Durability and Recovered come from wal.OpenManager; nil Durability
	// is an in-memory host.
	Durability *wal.Manager
	Recovered  *wal.Recovered
	// Evidence is the misbehavior evidence log (nil = fresh in-memory log).
	Evidence *evidence.Log
	// Obs is the host's observability sink (see NewObs; nil = private
	// instruments, no registry and no tracer).
	Obs *Obs

	// Handler is the protocol node that embeds this kernel; Run feeds it.
	Handler Handler
	// Callbacks carries the protocol's engine hooks: Committed, Stabilized,
	// Justification, VerifyJustification. ViewChanged, if set, runs after
	// the kernel's own view-change bookkeeping and before the re-proposal;
	// Stabilized, after the kernel keeps the checkpoint's certificate (when
	// Transfer is set). The kernel owns Send, Justify, Equivocation and
	// UnjustifiedNewView.
	Callbacks pbft.Callbacks
	// Justify gates every proposal path (nil = every batch is justified);
	// d is b's digest.
	Justify func(b *types.Batch, d types.Digest) bool
	// Backpressure, when non-nil, reports the transport's queued outbound
	// backlog (tcpnet: the sum of per-peer outbox occupancy). A backlog past
	// half of Config.OutboxDepth clamps the pipeline window to one slot
	// (see Drain). Nil (simnet, the deterministic chaos cluster) means no
	// backpressure signal.
	Backpressure func() int
	// ReproposeExpired makes a primary clear an expired request's proposed
	// latch and propose it again. The latch may date from a previous
	// primacy whose proposal died with its view; after enough view changes
	// every member is latched and the batch is never proposed again (found
	// by internal/chaos, loss-storm schedules). RingBFT leaves it off: a
	// re-proposed cross-shard batch could commit twice and take its locks
	// twice.
	ReproposeExpired bool
	// Transfer is the protocol's half of peer state transfer (transfer.go);
	// nil for a host that neither serves nor requests state.
	Transfer *Transfer
}

// Kernel is one host's consensus side: the engine, the proposal book, the
// watchdog and the evidence log. Protocol nodes embed it. Every proposal
// path goes through the book's methods (book.go); protocols touch the book
// fields directly only to restore them (recovery, state transfer).
type Kernel struct {
	Cfg   types.Config
	Shard types.ShardID
	Self  types.NodeID
	Peers []types.NodeID
	Auth  crypto.Authenticator
	Send  Sender
	Clock func() time.Time

	PBFT *pbft.Engine
	// Ev is the misbehavior evidence log and Obs the observability sink.
	// Both always non-nil.
	Ev  *evidence.Log
	Obs *Obs

	Dur *wal.Manager

	// The proposal book. Awaiting maps digests the primary must propose
	// (client requests, justified cross-shard batches): the watchdog
	// view-changes if the primary sits on them, and a new primary proposes
	// them on promotion. Proposed latches digests already proposed or
	// committed. Queue is the primary's FIFO; every proposal waits there
	// for a window slot.
	Awaiting map[types.Digest]*Pending
	Proposed map[types.Digest]struct{}
	Queue    []Queued

	// LastVC is when the latest view installed; the watchdog demands a new
	// view change at most once per LocalTimeout after it, so each view gets
	// a full timeout to land the proposals (several staggered stuck
	// proposals would otherwise escalate views faster than any view can
	// commit — view-change livelock, found by internal/chaos loss-storm
	// schedules).
	LastVC time.Time

	handler          Handler
	justify          func(*types.Batch, types.Digest) bool
	reproposeExpired bool
	// backpressure polls the transport's outbound backlog and bpLimit is
	// the clamp threshold, half the outbox depth.
	backpressure  func() int
	bpLimit       int
	onViewChanged func(types.View)

	// Peer state transfer (transfer.go): the protocol's half, the
	// certificates of the newest stable checkpoints, and the latest
	// request's Seq, when it was sent and whether it is still outstanding.
	transfer *Transfer
	certs    map[types.SeqNum]stableCert
	wanted   types.SeqNum
	asked    time.Time
	asking   bool
}

// Pending is one awaiting proposal and when its watchdog was last armed.
type Pending struct {
	Batch *types.Batch
	Since time.Time
}

// Queued is a batch on its way through the book together with its digest,
// derived once where the batch entered this replica (a checked client
// request or Forward, the engine's commit) so no later step hashes it again.
type Queued struct {
	Batch  *types.Batch
	Digest types.Digest
}

// New builds a kernel and its PBFT engine.
func New(opts Options) *Kernel {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	ev := opts.Evidence
	if ev == nil {
		ev = evidence.NewMemory()
	}
	obs := opts.Obs
	if obs == nil {
		obs = NewObs(nil, nil, "", opts.Shard, opts.Self)
	}
	if opts.Durability != nil {
		opts.Durability.SetObserver(obs.wal)
	}
	bpDepth := opts.Config.OutboxDepth
	if bpDepth <= 0 {
		bpDepth = 4096 // the tcpnet default
	}
	k := &Kernel{
		Cfg: opts.Config, Shard: opts.Shard, Self: opts.Self, Peers: opts.Peers,
		Auth: opts.Auth, Send: opts.Send, Clock: opts.Clock,
		Ev: ev, Obs: obs,
		Dur:              opts.Durability,
		Awaiting:         make(map[types.Digest]*Pending),
		Proposed:         make(map[types.Digest]struct{}),
		handler:          opts.Handler,
		justify:          opts.Justify,
		reproposeExpired: opts.ReproposeExpired,
		onViewChanged:    opts.Callbacks.ViewChanged,
		backpressure:     opts.Backpressure,
		bpLimit:          bpDepth / 2,
		transfer:         opts.Transfer,
	}
	cb := opts.Callbacks
	if stabilized := cb.Stabilized; k.transfer != nil {
		k.certs = make(map[types.SeqNum]stableCert)
		cb.Stabilized = func(seq types.SeqNum, d types.Digest) {
			// The engine still holds the votes at seq (it GCs only below).
			if agreed, cert, ok := k.PBFT.CheckpointCert(seq); ok && agreed == d {
				k.keepCert(seq, stableCert{digest: d, cert: cert})
			}
			if stabilized != nil {
				stabilized(seq, d)
			}
		}
	}
	cb.Send = func(to types.NodeID, m *types.Message) { k.Send(to, m) }
	cb.ViewChanged = k.viewChanged
	cb.Justify = k.Justified
	cb.Equivocation = k.equivocation
	cb.UnjustifiedNewView = k.unjustifiedNewView
	k.PBFT = pbft.New(opts.Shard, opts.Self, opts.Peers, opts.Auth, cb,
		pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout, OnPhase: obs.phaseSink()})
	return k
}

// Run drives the host's event loop until ctx is cancelled: inbox messages,
// plus a periodic tick for the protocol timers.
func (k *Kernel) Run(ctx context.Context, inbox <-chan *types.Message) {
	tickEvery := k.Cfg.LocalTimeout / 4
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
			k.handler.HandleMessage(m)
		case <-ticker.C:
			k.handler.HandleTick(k.Clock())
		}
	}
}

// Tick runs the kernel's share of a timer tick that precedes the
// protocol's own timers: the engine's view-change timer, the proposal
// drain, the WAL group commit and the gauges. Watchdog is the other share.
func (k *Kernel) Tick(now time.Time) {
	k.PBFT.Tick(now)
	k.Drain()
	if k.Dur != nil {
		// Group commit: the batched fsync of WAL appends since the last one.
		k.DurOK(k.Dur.MaybeSync(now))
	}
	k.Obs.sample(len(k.Queue), k.PBFT.InFlight(), len(k.Awaiting), k.Ev.Len())
}

// DurOK counts a non-nil err as a durability failure and reports whether
// err was nil.
func (k *Kernel) DurOK(err error) bool {
	if err == nil {
		return true
	}
	k.Obs.DurErrors.Inc()
	return false
}

// Close syncs and closes the host's WAL, if it has one. Call after Run
// returns.
func (k *Kernel) Close() error {
	if k.Dur == nil {
		return nil
	}
	return k.Dur.Close()
}

// Engine exposes the intra-shard PBFT engine (for tests and fault drivers).
func (k *Kernel) Engine() *pbft.Engine { return k.PBFT }

// Evidence returns the host's misbehavior evidence log.
func (k *Kernel) Evidence() *evidence.Log { return k.Ev }

// ViewChangeCount returns the number of view changes this host installed.
func (k *Kernel) ViewChangeCount() int64 { return k.Obs.ViewChanges.Value() }

// RetransmitCount returns the number of protocol retransmissions.
func (k *Kernel) RetransmitCount() int64 { return k.Obs.Retransmits.Value() }

// Observe records a lifecycle event stamped with the host clock. It reads
// the clock only when a tracer or a registry takes the event.
func (k *Kernel) Observe(seq types.SeqNum, ph trace.Phase) {
	if k.Obs.traced() {
		k.Obs.record(k.Clock(), seq, ph)
	}
}

// VerifyPeer reports whether m comes from another replica of this shard under
// a valid MAC — the gate on peer state-transfer traffic. Its Verify* name is
// what the verifyfirst analyzer takes as an authenticity check.
func (k *Kernel) VerifyPeer(m *types.Message) bool {
	return m.From.Kind == types.KindReplica && m.From.Shard == k.Shard && m.From != k.Self &&
		crypto.VerifyMessageMAC(k.Auth, m) == nil
}

// Respond answers client with the results of the batch with digest d. View
// rides along so clients can re-target the current primary after a view
// change (standard PBFT client behaviour).
func (k *Kernel) Respond(client types.NodeID, d types.Digest, results []types.Value) {
	m := &types.Message{
		Type: types.MsgResponse, From: k.Self, Shard: k.Shard,
		View: k.PBFT.View(), Digest: d, Results: results,
	}
	m.MAC = crypto.MACMessage(k.Auth, client, m)
	k.Send(client, m)
}

// Relay re-shares m unchanged with every other member of the shard.
func (k *Kernel) Relay(m *types.Message) {
	for _, p := range k.Peers {
		if p != k.Self {
			k.Send(p, m)
		}
	}
}

// ClientOf returns the client every replica answers for a batch: the issuer
// recorded in the transactions themselves, so backups can respond without
// having seen the original client message (the PrePrepare carries the
// batch).
func ClientOf(b *types.Batch) types.NodeID {
	return types.ClientNode(b.Txns[0].ID.Client)
}

// equivocation records the engine's primary-equivocation evidence. first
// is the accepted PrePrepare; the accusation targets its sender (the
// primary of that view). MAC-authenticated halves: recorder-verifiable, not
// transferable.
func (k *Kernel) equivocation(first, second *types.Message) {
	k.Ev.Add(evidence.Record{
		Kind: evidence.KindEquivocation, Accused: first.From,
		Shard: k.Shard, View: first.View, Seq: first.Seq,
		First: evidence.MsgOf(first), Second: evidence.MsgOf(second),
	})
}

// unjustifiedNewView records a NewView that re-proposed a batch no gate
// justified. The NewView signature covers only the canonical tuple, not the
// re-proposal bodies, so this record transfers the signed claim that m.From
// led view m.View — the offending proof itself is recorder-attested only
// (see the evidence package doc).
func (k *Kernel) unjustifiedNewView(m *types.Message, p types.PreparedProof) {
	k.Ev.Add(evidence.Record{
		Kind: evidence.KindUnjustifiedNewView, Accused: m.From,
		Shard: k.Shard, View: m.View, Seq: p.Seq,
		First: evidence.MsgOf(m),
		Second: evidence.Msg{
			From: m.From, Type: types.MsgPrePrepare, Shard: k.Shard,
			View: p.View, Seq: p.Seq, Digest: p.Digest,
		},
		Transferable: true,
	})
}
