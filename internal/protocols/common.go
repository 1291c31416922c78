// Package protocols implements the fully-replicated single-primary BFT
// baselines of Figure 1 — Pbft, Zyzzyva, Sbft, PoE, HotStuff, and Rcc — on
// the same replica/network substrate as RingBFT. Each runs one consensus
// group of n globally distributed replicas (no sharding); their normal-case
// message flows are implemented faithfully so that message complexity ×
// link latency, the quantity Figure 1 visualizes, is reproduced. View
// change is exercised through the Pbft baseline (the others share its
// fate under faults per their papers and are benchmarked fault-free, as in
// Figure 1).
//
// Invariants every baseline upholds: replicas of one group execute the same
// batches in the same sequence order, Send never blocks the event loop (the
// simnet/tcpnet contract), and client responses are only emitted for
// executed batches. The baselines deliberately share the types, crypto,
// store, and ledger substrate with RingBFT so Figure 1's comparison
// measures protocol message flow, not implementation divergence.
//
// Protecting gates: protocols_test.go commits workloads through every
// baseline and checks cross-replica agreement; the harness' Fig 1 path runs
// them on the simulated WAN each CI cycle; and the static analyzers
// (cmd/ringbft-vet) hold this package to the same verify-before-use and
// sorted-map-iteration rules as the protocol packages proper.
package protocols

import (
	"context"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/ledger"
	"ringbft/internal/store"
	"ringbft/internal/types"
)

// Sender abstracts the network.
type Sender func(to types.NodeID, m *types.Message)

// Node is the shape the harness drives.
type Node interface {
	Run(ctx context.Context, inbox <-chan *types.Message)
}

// Options configures one baseline replica.
type Options struct {
	Config types.Config // Shards must be 1
	Self   types.NodeID
	Peers  []types.NodeID
	Auth   crypto.Authenticator
	Send   Sender
	Clock  func() time.Time
}

// base carries the state shared by every baseline replica: the store, the
// ledger, in-order execution, and response plumbing.
type base struct {
	cfg   types.Config
	self  types.NodeID
	peers []types.NodeID
	n, f  int
	nf    int
	auth  crypto.Authenticator
	send  Sender
	clock func() time.Time

	kv    *store.KV
	chain *ledger.Chain

	execNext types.SeqNum
	ready    map[types.SeqNum]*types.Batch
	executed map[types.Digest][]types.Value
}

func newBase(opts Options) base {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	n := len(opts.Peers)
	f := (n - 1) / 3
	b := base{
		cfg:      opts.Config,
		self:     opts.Self,
		peers:    opts.Peers,
		n:        n,
		f:        f,
		nf:       n - f,
		auth:     opts.Auth,
		send:     opts.Send,
		clock:    opts.Clock,
		kv:       store.NewKV(),
		chain:    ledger.NewChain(0),
		ready:    make(map[types.SeqNum]*types.Batch),
		executed: make(map[types.Digest][]types.Value),
	}
	return b
}

// Preload installs the replicated table.
func (b *base) Preload(records int) { b.kv.Preload(0, 1, records) }

// ViewChangeCount satisfies the harness statProvider (baselines are
// benchmarked fault-free; Pbft view changes go through package pbft).
func (b *base) ViewChangeCount() int64 { return 0 }

// RetransmitCount satisfies the harness statProvider.
func (b *base) RetransmitCount() int64 { return 0 }

// markReady queues a decided batch at seq and executes every contiguous
// decided sequence, answering clients.
func (b *base) markReady(seq types.SeqNum, batch *types.Batch) {
	b.ready[seq] = batch
	for {
		nb, ok := b.ready[b.execNext+1]
		if !ok {
			return
		}
		delete(b.ready, b.execNext+1)
		b.execNext++
		b.execute(b.execNext, nb)
	}
}

func (b *base) execute(seq types.SeqNum, batch *types.Batch) {
	if len(batch.Txns) == 0 {
		return
	}
	d := batch.Digest()
	if _, done := b.executed[d]; done {
		return
	}
	results := make([]types.Value, len(batch.Txns))
	for i := range batch.Txns {
		results[i] = b.kv.ExecuteTxnPartial(&batch.Txns[i], 0, 1)
	}
	b.executed[d] = results
	b.chain.Append(seq, b.peers[0], batch)
	b.respond(types.ClientNode(batch.Txns[0].ID.Client), d, results)
}

func (b *base) respond(client types.NodeID, d types.Digest, results []types.Value) {
	m := &types.Message{
		Type: types.MsgResponse, From: b.self, Digest: d, Results: results,
	}
	m.MAC = crypto.MACMessage(b.auth, client, m)
	b.send(client, m)
}

// broadcastMAC sends a per-recipient MAC'd copy of m to every peer but
// self. The canonical bytes are identical for every recipient, so they are
// built once for the whole broadcast.
func (b *base) broadcastMAC(m *types.Message) {
	var buf [types.SigBytesLen]byte
	sb := m.AppendSigBytes(buf[:0])
	for _, p := range b.peers {
		if p == b.self {
			continue
		}
		cp := *m
		cp.MAC = b.auth.MAC(p, sb)
		b.send(p, &cp)
	}
}

// verifyMAC checks m's pairwise MAC against its canonical bytes.
func (b *base) verifyMAC(m *types.Message) bool {
	return crypto.VerifyMessageMAC(b.auth, m) == nil
}

// verifyShareCert verifies an aggregated certificate of signature shares:
// entries must have the expected type, slot,
// and digest, come from distinct peers, and carry quorum valid signatures.
func (b *base) verifyShareCert(cert []types.Signed, typ types.MsgType, seq types.SeqNum, d types.Digest, quorum int) bool {
	seen := make(map[types.NodeID]struct{}, len(cert))
	entries := make([]*types.Signed, 0, len(cert))
	for i := range cert {
		s := &cert[i]
		if s.Type != typ || s.Seq != seq || s.Digest != d || !b.isPeer(s.From) {
			continue
		}
		if _, dup := seen[s.From]; dup {
			continue
		}
		seen[s.From] = struct{}{}
		entries = append(entries, s)
	}
	valid, _ := crypto.VerifyQuorum(b.auth, entries, quorum, nil)
	return valid >= quorum
}

func (b *base) isPeer(id types.NodeID) bool {
	return id.Kind == types.KindReplica && id.Shard == 0 &&
		id.Index >= 0 && id.Index < b.n
}

// runLoop is the common event loop.
func runLoop(ctx context.Context, inbox <-chan *types.Message, handle func(*types.Message)) {
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			handle(m)
		}
	}
}
