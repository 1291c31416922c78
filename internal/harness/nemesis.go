package harness

import (
	"context"
	"sync"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/simnet"
	"ringbft/internal/types"
)

// ByzMode selects a Byzantine behaviour for one replica's outbound traffic.
type ByzMode int32

const (
	// ByzNone restores honest behaviour.
	ByzNone ByzMode = iota
	// ByzSilent drops every outbound message while the replica keeps
	// receiving — a primary that "goes dark" without crashing, so peers
	// must detect it through timers alone.
	ByzSilent
	// ByzEquivocate makes the replica send conflicting PrePrepares: odd-
	// index peers receive a modified batch, correctly re-MAC'd with the
	// replica's own keys, at the same (view, seq). Safety demands no two
	// honest replicas commit different digests at one sequence regardless.
	ByzEquivocate
	// ByzNewView appends a fabricated cross-shard re-proposal — carrying no
	// justification certificate — to every outbound NewView. The NewView
	// signature covers only the canonical tuple, so the message still
	// verifies; honest receivers must reject it at the justification gate
	// (and record evidence) rather than adopt the phantom batch.
	ByzNewView
	// ByzGarbageCert zeroes every signature of the commit certificate its
	// outbound Forwards carry. Neither the Forward signature nor the ring
	// tags cover the certificate, so the copies still count toward f+1 at
	// the next shard; honest replicas must never let the garbage reach a
	// view-change or NewView justification, nor complain upstream on it.
	ByzGarbageCert
	// ByzBadCommitSig zeroes the signature of every outbound cross-shard
	// Commit and keeps the MAC beside it, which covers only the canonical
	// tuple and still verifies. Peers count the vote on its MAC, so the
	// garbage can enter their unproven certificates; honest replicas must
	// prove a certificate before anyone checks it.
	ByzBadCommitSig
)

// Intercept applies Byzantine mode to one message node self sends to to: it
// returns the message to send in its place, or nil to drop it. a is self's
// authenticator, which re-MACs an equivocated PrePrepare. Shared by the
// wall-clock harness and the deterministic chaos engine (internal/chaos).
func Intercept(mode ByzMode, self types.NodeID, a crypto.Authenticator, to types.NodeID, m *types.Message) *types.Message {
	switch mode {
	case ByzSilent:
		return nil
	case ByzEquivocate:
		if m.Type == types.MsgPrePrepare && m.Batch != nil && len(m.Batch.Txns) > 0 &&
			to.Kind == types.KindReplica && to.Index%2 == 1 {
			cp := *m
			cp.Batch = EquivocateBatch(m.Batch)
			cp.Digest = cp.Batch.Digest()
			var buf [types.SigBytesLen]byte
			cp.MAC = a.MAC(to, cp.AppendSigBytes(buf[:0]))
			return &cp
		}
	case ByzNewView:
		return ForgeUnjustifiedProof(self, m)
	case ByzGarbageCert:
		if m.Type == types.MsgForward && len(m.Cert) > 0 {
			cp := *m
			cp.Cert = types.ZeroedCert(m.Cert)
			return &cp
		}
	case ByzBadCommitSig:
		if m.Type == types.MsgCommit && len(m.Sig) > 0 {
			cp := *m
			cp.Sig = make([]byte, len(m.Sig))
			return &cp
		}
	case ByzNone:
	}
	return m
}

// ForgeUnjustifiedProof returns a copy of NewView m with a fabricated
// cross-shard re-proposal appended: a phantom batch initiated by the
// previous shard (so the forger's shard cannot justify it as initiator),
// carrying no justification certificate, at a sequence above every honest
// re-proposal. The NewView signature covers only the canonical tuple
// (type/shard/view/seq/digest/from), so no re-signing is needed — which is
// exactly the gap the receiver-side justification gate closes. Non-NewView
// messages and shard-0 forgers (whose shard initiates every batch it could
// fabricate this way) pass through unchanged.
func ForgeUnjustifiedProof(self types.NodeID, m *types.Message) *types.Message {
	if m.Type != types.MsgNewView || self.Shard <= 0 {
		return m
	}
	evil := &types.Batch{
		Txns: []types.Txn{{
			ID:     types.TxnID{Client: 9999, Seq: uint64(m.View)},
			Reads:  []types.Key{types.Key(self.Shard - 1)},
			Writes: []types.Key{types.Key(self.Shard)},
			Delta:  7,
		}},
		Involved: []types.ShardID{self.Shard - 1, self.Shard},
	}
	seq := m.StableSeq
	for i := range m.Prepared {
		if m.Prepared[i].Seq > seq {
			seq = m.Prepared[i].Seq
		}
	}
	cp := *m
	cp.Prepared = append(append([]types.PreparedProof(nil), m.Prepared...), types.PreparedProof{
		View: m.View - 1, Seq: seq + 1, Digest: evil.Digest(), Batch: evil,
	})
	return &cp
}

// EquivocateBatch derives a conflicting but well-formed batch: same client
// transactions re-ordered (or, for a single-transaction batch, a tweaked
// delta), so its digest differs while every receiver-side well-formedness
// check still passes. Shared by the wall-clock interceptor above and the
// deterministic chaos engine (internal/chaos).
func EquivocateBatch(b *types.Batch) *types.Batch {
	alt := *b
	alt.Txns = append([]types.Txn(nil), b.Txns...)
	if len(alt.Txns) > 1 {
		alt.Txns[0], alt.Txns[len(alt.Txns)-1] = alt.Txns[len(alt.Txns)-1], alt.Txns[0]
	} else {
		alt.Txns[0].Delta++
	}
	return &alt
}

// Nemesis is the fault-injection hook of one run: it executes alongside the
// workload (started when the measurement window opens) and drives faults
// through the Controller. It must return when ctx is cancelled.
type Nemesis func(ctx context.Context, ctl *Controller)

// CrashPrimaries is the Figure 9 fault: at `at` into the measurement window
// the view-0 primaries of the first k shards crash for good.
func CrashPrimaries(k int, at time.Duration) Nemesis {
	return func(ctx context.Context, ctl *Controller) {
		if !sleep(ctx, at) {
			return
		}
		for s := 0; s < k && s < ctl.Shards(); s++ {
			ctl.Crash(types.ReplicaNode(types.ShardID(s), 0))
		}
	}
}

// CrashRestart crashes the last backup of shard 0 at crashAt into the
// measurement window and restarts it at restartAt: from its data directory
// when the run is Durable, from nothing otherwise, and with wipe from an
// erased directory, forcing the wipe-and-rejoin state-transfer path.
func CrashRestart(crashAt, restartAt time.Duration, wipe bool) Nemesis {
	return func(ctx context.Context, ctl *Controller) {
		victim := types.ReplicaNode(0, ctl.ReplicasPerShard()-1)
		if !sleep(ctx, crashAt) {
			return
		}
		ctl.Crash(victim)
		if sleep(ctx, restartAt-crashAt) {
			ctl.Restart(victim, wipe)
		}
	}
}

// sleep waits d and reports whether ctx is still live.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// Controller is the handle a Nemesis uses to break — and heal — the
// cluster: schedulable partitions, per-link loss and delay, crash/restart/
// wipe of individual replicas, and Byzantine primaries. All methods are safe
// for concurrent use with the running workload.
type Controller struct {
	cl *cluster

	mu       sync.Mutex
	lastHeal time.Duration // offset from measurement start of the latest heal
	started  time.Time     // measurement start
	err      error         // the first failed Restart, returned by Run
}

// Shards and ReplicasPerShard describe the topology under test.
func (c *Controller) Shards() int           { return c.cl.cfg.Shards }
func (c *Controller) ReplicasPerShard() int { return c.cl.cfg.ReplicasPerShard }

// SetPartition installs f as the link-down predicate: messages from->to are
// dropped while f reports true. nil heals. Like the loss and delay filters
// below, simnet fabric only (a no-op over TCP).
func (c *Controller) SetPartition(f func(from, to types.NodeID) bool) {
	c.onSim(f == nil, func(n *simnet.Network) { n.SetLinkFilter(f) })
}

// SetLossFilter installs a per-link loss model (nil heals).
func (c *Controller) SetLossFilter(f func(from, to types.NodeID) float64) {
	c.onSim(f == nil, func(n *simnet.Network) { n.SetLossFilter(f) })
}

// SetDelayFilter installs a per-link extra-delay model (nil heals).
func (c *Controller) SetDelayFilter(f func(from, to types.NodeID) time.Duration) {
	c.onSim(f == nil, func(n *simnet.Network) { n.SetDelayFilter(f) })
}

// onSim applies set to the simulated network, if the run has one, and
// notes a heal when heal is set.
func (c *Controller) onSim(heal bool, set func(*simnet.Network)) {
	if sf, ok := c.cl.rt.net.(SimFabric); ok {
		set(sf.Net)
	}
	if heal {
		c.noteHeal()
	}
}

// Crash stops node id: its event loop is cancelled and the fabric silences
// it both ways. Restart revives it.
func (c *Controller) Crash(id types.NodeID) { c.cl.rt.Crash(id) }

// Restart revives a crashed node, rebuilt from its data directory (wipe
// erases it first, forcing the wipe-and-rejoin path). A failure is kept and
// returned by Run.
func (c *Controller) Restart(id types.NodeID, wipe bool) {
	if err := c.cl.rt.Restart(id, wipe); err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		return
	}
	c.noteHeal()
}

// SetByzantine flips node id's outbound behaviour. ByzNone heals.
func (c *Controller) SetByzantine(id types.NodeID, mode ByzMode) {
	if b := c.cl.byz[id]; b != nil {
		b.Store(int32(mode))
	}
	if mode == ByzNone {
		c.noteHeal()
	}
}

// HealAll clears partitions, loss, delay, and Byzantine modes (crashed
// nodes stay down until Restart).
func (c *Controller) HealAll() {
	for _, s := range c.cl.rt.slots {
		if b := c.cl.byz[s.id]; b != nil {
			b.Store(int32(ByzNone))
		}
	}
	c.onSim(true, func(n *simnet.Network) {
		n.SetLinkFilter(nil)
		n.SetLossFilter(nil)
		n.SetDelayFilter(nil)
	})
}

// noteHeal records the instant of the latest healing action, reported in
// Result.NemesisLastHeal for liveness checking ("the cluster commits new
// batches within a bounded time after the last heal").
func (c *Controller) noteHeal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started.IsZero() {
		c.lastHeal = time.Since(c.started)
	}
}
