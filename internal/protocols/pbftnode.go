package protocols

import (
	"context"
	"time"

	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// PBFTNode is the Pbft baseline: the three-phase Castro-Liskov protocol
// (package pbft) with in-order execution, over a fully replicated group.
// Two of its three phases are all-to-all, the quadratic cost Figure 1's
// single-primary cluster exhibits as n grows.
type PBFTNode struct {
	base
	engine      *pbft.Engine
	tracker     *pbft.CheckpointTracker
	proposed    map[types.Digest]struct{}
	queue       []*types.Batch // window-full backpressure buffer
	viewChanges int64
}

// NewPBFT creates a Pbft baseline replica.
func NewPBFT(opts Options) *PBFTNode {
	n := &PBFTNode{
		base:     newBase(opts),
		proposed: make(map[types.Digest]struct{}),
	}
	n.engine = pbft.New(0, opts.Self, opts.Peers, opts.Auth, pbft.Callbacks{
		Send: func(to types.NodeID, m *types.Message) { n.send(to, m) },
		Committed: func(seq types.SeqNum, b *types.Batch, d types.Digest, _ *pbft.Cert) {
			n.tracker.Committed(seq, d)
			n.markReady(seq, b)
		},
		ViewChanged: func(types.View) { n.viewChanges++ },
	}, pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout})
	n.tracker = pbft.NewCheckpointTracker(opts.Config.CheckpointInterval, n.engine.MakeCheckpoint)
	return n
}

// ViewChangeCount reports installed view changes.
func (n *PBFTNode) ViewChangeCount() int64 { return n.viewChanges }

// Run drives the replica until ctx is cancelled.
func (n *PBFTNode) Run(ctx context.Context, inbox <-chan *types.Message) {
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			n.handle(m)
		case <-ticker.C:
			n.engine.Tick(n.clock())
		}
	}
}

func (n *PBFTNode) handle(m *types.Message) {
	if m == nil {
		return
	}
	if m.Type == types.MsgClientRequest {
		n.onClientRequest(m)
		return
	}
	n.engine.OnMessage(m)
	n.drainQueue()
}

// drainQueue retries proposals parked while the log window was full.
func (n *PBFTNode) drainQueue() {
	if !n.engine.IsPrimary() || n.engine.InViewChange() {
		return
	}
	for len(n.queue) > 0 {
		b := n.queue[0]
		d := b.Digest()
		if _, done := n.proposed[d]; done {
			n.queue = n.queue[1:]
			continue
		}
		if _, err := n.engine.Propose(b); err != nil {
			return
		}
		n.proposed[d] = struct{}{}
		n.queue = n.queue[1:]
	}
}

func (n *PBFTNode) onClientRequest(m *types.Message) {
	if m.Batch == nil || len(m.Batch.Txns) == 0 {
		return
	}
	d := m.Batch.Digest()
	if res, ok := n.executed[d]; ok {
		n.respond(types.ClientNode(m.Batch.Txns[0].ID.Client), d, res)
		return
	}
	if _, done := n.proposed[d]; done {
		return
	}
	if n.engine.IsPrimary() {
		if _, err := n.engine.Propose(m.Batch); err == nil {
			n.proposed[d] = struct{}{}
		} else {
			n.queue = append(n.queue, m.Batch)
		}
	}
}
