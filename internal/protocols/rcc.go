package protocols

import (
	"context"
	"time"

	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// RCCNode implements RCC's wait-free concurrent paradigm (Gupta et al., ICDE
// 2021): every replica acts as the primary of its own PBFT instance, so n
// consensus instances run concurrently and client load is spread across all
// replicas instead of funnelling through one primary. Clients address the
// replica whose instance will order their request (the harness routes by
// client id). Execution interleaves instances in (sequence, instance) order
// on each replica; instances with no traffic simply do not occupy rounds
// (the no-op filling of the full protocol is elided — benchmark clients
// saturate every instance).
type RCCNode struct {
	base
	engines  []*pbft.Engine
	trackers []*pbft.CheckpointTracker
	proposed map[types.Digest]struct{}
	decided  map[rccRound]*types.Batch
	nextExec map[int]types.SeqNum // per-instance executed watermark (stats)
	order    []rccRound
}

type rccRound struct {
	instance int
	seq      types.SeqNum
}

// NewRCC creates an RCC replica running one PBFT engine per instance.
func NewRCC(opts Options) *RCCNode {
	n := &RCCNode{
		base:     newBase(opts),
		proposed: make(map[types.Digest]struct{}),
		decided:  make(map[rccRound]*types.Batch),
		nextExec: make(map[int]types.SeqNum),
	}
	for i := range opts.Peers {
		inst := i
		// Instance i's first primary must be replica i. Every engine maps
		// view v to primary v mod n over the same peer list, so bumpView
		// starts engine i in view i instead of view 0.
		e := pbft.New(0, opts.Self, opts.Peers, opts.Auth, pbft.Callbacks{
			Send: func(to types.NodeID, m *types.Message) {
				cp := *m
				cp.Instance = inst
				n.send(to, &cp)
			},
			Committed: func(seq types.SeqNum, b *types.Batch, d types.Digest, _ *pbft.Cert) {
				n.trackers[inst].Committed(seq, d)
				n.onDecided(inst, seq, b)
			},
		}, pbft.Options{Clock: opts.Clock, ViewTimeout: opts.Config.LocalTimeout})
		n.engines = append(n.engines, e)
		n.trackers = append(n.trackers, pbft.NewCheckpointTracker(opts.Config.CheckpointInterval, e.MakeCheckpoint))
		n.bumpView(e, i)
	}
	return n
}

// bumpView advances engine e to the first view whose primary is replica i,
// giving each instance a distinct primary without touching engine internals.
func (n *RCCNode) bumpView(e *pbft.Engine, i int) {
	for int(uint64(e.View())%uint64(n.n)) != i {
		e.ForceView(e.View() + 1)
	}
}

// Run drives the replica until ctx is cancelled.
func (n *RCCNode) Run(ctx context.Context, inbox <-chan *types.Message) {
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
			for _, e := range n.engines {
				e.Tick(n.clock())
			}
		}
	}
}

func (n *RCCNode) handle(m *types.Message) {
	if m == nil {
		return
	}
	if m.Type == types.MsgClientRequest {
		n.onClientRequest(m)
		return
	}
	if m.Instance < 0 || m.Instance >= len(n.engines) {
		return
	}
	n.engines[m.Instance].OnMessage(m)
}

// onClientRequest proposes in this replica's own instance — the multi
// primary property: any replica accepts client load directly.
func (n *RCCNode) onClientRequest(m *types.Message) {
	if m.Batch == nil || len(m.Batch.Txns) == 0 {
		return
	}
	d := m.Batch.Digest()
	if res, ok := n.executed[d]; ok {
		n.respond(types.ClientNode(m.Batch.Txns[0].ID.Client), d, res)
		return
	}
	if _, dup := n.proposed[d]; dup {
		return
	}
	inst := n.self.Index
	if _, err := n.engines[inst].Propose(m.Batch); err == nil {
		n.proposed[d] = struct{}{}
	}
}

// onDecided executes decided rounds in deterministic (seq, instance) order
// across all instances that have traffic.
func (n *RCCNode) onDecided(inst int, seq types.SeqNum, b *types.Batch) {
	n.decided[rccRound{inst, seq}] = b
	// Execute everything decided, walking rounds in (seq, instance) order;
	// rounds not yet decided are revisited on the next decision.
	for {
		progressed := false
		for i := 0; i < n.n; i++ {
			next := n.nextExec[i] + 1
			if nb, ok := n.decided[rccRound{i, next}]; ok {
				delete(n.decided, rccRound{i, next})
				n.nextExec[i] = next
				n.executeRCC(nb)
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

func (n *RCCNode) executeRCC(batch *types.Batch) {
	if len(batch.Txns) == 0 {
		return
	}
	d := batch.Digest()
	if _, done := n.executed[d]; done {
		return
	}
	results := make([]types.Value, len(batch.Txns))
	for i := range batch.Txns {
		results[i] = n.kv.ExecuteTxnPartial(&batch.Txns[i], 0, 1)
	}
	n.executed[d] = results
	n.chain.Append(types.SeqNum(n.chain.Height()+1), n.self, batch)
	n.respond(types.ClientNode(batch.Txns[0].ID.Client), d, results)
}
