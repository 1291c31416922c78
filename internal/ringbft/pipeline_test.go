package ringbft

import (
	"testing"

	"ringbft/internal/types"
)

// enqueueRequest stages a client request without pumping, so a burst of
// requests reaches the primary back-to-back — the arrival pattern that
// fills the pipeline window and gives the adaptive batcher visible work.
func (c *cluster) enqueueRequest(client types.ClientID, b *types.Batch) {
	from := types.ClientNode(client)
	m := &types.Message{
		Type: types.MsgClientRequest, From: from,
		Batch: b, Digest: b.Digest(),
	}
	c.queue = append(c.queue, routed{from, types.ReplicaNode(b.Initiator(), 0), m})
}

// pipelineWorkload is a fixed burst: ten single-shard batches alternating
// between the two shards plus one cross-shard batch, every batch exactly
// BatchSize transactions so the adaptive batcher has nothing to merge and
// proposal content is depth-independent.
func pipelineWorkload(z int) []*types.Batch {
	var out []*types.Batch
	for i := 0; i < 10; i++ {
		s := types.ShardID(i % z)
		out = append(out, mkBatch(types.ClientID(i%3+1), uint64(i+1), z, []types.ShardID{s}, uint64(2+i)))
	}
	all := make([]types.ShardID, z)
	for s := range all {
		all[s] = types.ShardID(s)
	}
	out = append(out, mkBatch(4, 1, z, all, 13))
	return out
}

// runPipelineBurst drives the fixed burst through a fresh cluster at the
// given pipeline depth (0 = the types.DefaultConfig depth) and returns each
// shard's block-hash sequence and each replica-0 state digest.
func runPipelineBurst(t *testing.T, depth int) (blocks map[types.ShardID][]types.Digest, states map[types.ShardID]types.Digest) {
	t.Helper()
	const z = 2
	c := newClusterWith(t, z, 4, func(cfg *types.Config) {
		cfg.BatchSize = 1
		if depth > 0 {
			cfg.PipelineDepth = depth
		}
	})
	for _, b := range pipelineWorkload(z) {
		c.enqueueRequest(b.Txns[0].ID.Client, b)
	}
	c.pump()
	c.assertNoExecErrors()

	blocks = make(map[types.ShardID][]types.Digest)
	states = make(map[types.ShardID]types.Digest)
	for s := 0; s < z; s++ {
		r := c.replicas[types.ReplicaNode(types.ShardID(s), 0)]
		for _, blk := range r.Chain().Blocks() {
			blocks[types.ShardID(s)] = append(blocks[types.ShardID(s)], blk.Hash())
		}
		states[types.ShardID(s)] = r.Store().Digest()
	}
	return blocks, states
}

// TestPipelineDeterminism is the pipelined-consensus safety property: for
// the same request arrival order, every pipeline depth — lockstep (1), an
// odd window, and deep ones up to the default — yields byte-identical
// block-hash sequences and state digests. Overlapping
// PRE-PREPARE/PREPARE/COMMIT across sequence numbers changes when proposals
// happen, never what commits or in which order.
func TestPipelineDeterminism(t *testing.T) {
	refBlocks, refStates := runPipelineBurst(t, 1)
	for s, seq := range refBlocks {
		if len(seq) < 2 {
			t.Fatalf("shard %d committed only %d blocks at depth 1", s, len(seq))
		}
	}
	for _, depth := range []int{2, 3, 8} {
		blocks, states := runPipelineBurst(t, depth)
		for s, want := range refBlocks {
			got := blocks[s]
			if len(got) != len(want) {
				t.Fatalf("depth %d: shard %d has %d blocks, depth 1 has %d", depth, s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("depth %d: shard %d block %d hash differs from depth 1", depth, s, i)
				}
			}
		}
		for s, want := range refStates {
			if states[s] != want {
				t.Fatalf("depth %d: shard %d state digest differs from depth 1", depth, s)
			}
		}
	}
}

// TestPipelineAdaptiveBatching: a burst of small single-shard requests
// arriving while the window is full is coalesced into one proposal, and
// every client is still answered under its original request digest.
func TestPipelineAdaptiveBatching(t *testing.T) {
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) {
		cfg.BatchSize = 4
		cfg.PipelineDepth = 1
	})
	var batches []*types.Batch
	for i := 0; i < 4; i++ {
		batches = append(batches, mkBatch(types.ClientID(i+1), 1, 2, []types.ShardID{0}, uint64(2+i)))
	}
	for i, b := range batches {
		c.enqueueRequest(types.ClientID(i+1), b)
	}
	c.pump()
	c.assertNoExecErrors()

	// Request 1 proposes immediately (the window is empty when it lands);
	// requests 2-4 queue behind the lockstep window and merge into one
	// proposal when the commit frees the slot: two blocks, not four.
	primary := c.replicas[types.ReplicaNode(0, 0)]
	if h := primary.Chain().Height(); h != 2 {
		t.Fatalf("shard 0 ledger height = %d, want 2 (one solo + one coalesced block)", h)
	}
	merged := primary.Chain().Block(2).Batch
	if len(merged.Reqs) != 3 || len(merged.Txns) != 3 {
		t.Fatalf("coalesced block has Reqs=%v txns=%d, want 3 requests / 3 txns", merged.Reqs, len(merged.Txns))
	}
	if n := primary.Stats().CoalescedReqs; n != 2 {
		t.Fatalf("primary coalesced %d requests, want 2", n)
	}
	for i, b := range batches {
		d := b.Digest()
		if got := c.responses(types.ClientID(i+1), d); got < c.cfg.F()+1 {
			t.Fatalf("client %d got %d responses under its own digest, want >= %d", i+1, got, c.cfg.F()+1)
		}
	}

	// A retransmission of a coalesced request must be answered from the
	// executed cache — never re-proposed, never re-executed.
	c.submit(3, batches[2])
	if h := primary.Chain().Height(); h != 2 {
		t.Fatalf("retransmission re-executed: ledger height %d, want 2", h)
	}
	if got := c.responses(3, batches[2].Digest()); got < c.cfg.F()+2 {
		t.Fatalf("retransmission not answered from executed cache (got %d responses)", got)
	}
}

// TestPipelineFillDiscipline: the minimum proposal size ramps with window
// occupancy — an empty window proposes a lone request immediately, while
// each deeper slot demands a fuller merge, so a stream of small requests
// cannot occupy the whole window as tiny proposals.
func TestPipelineFillDiscipline(t *testing.T) {
	const depth = 4
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) {
		cfg.BatchSize = 4
		cfg.PipelineDepth = depth
	})
	// Drop every PREPARE so nothing commits: in-flight counts only grow.
	c.drop = func(_, _ types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgPrepare
	}
	primary := c.replicas[types.ReplicaNode(0, 0)]
	for i := 0; i < 7; i++ {
		c.enqueueRequest(types.ClientID(i+1), mkBatch(types.ClientID(i+1), 1, 2, []types.ShardID{0}, uint64(2+i)))
		c.pump()
	}
	// The ramp demands BatchSize×inFlight/depth = inFlight queued txns per
	// slot here: request 1 proposes alone (empty window), request 2 alone
	// (1 queued ≥ 1), 3 waits for 4 (2 queued ≥ 2 → a 2-request merge),
	// 5-6 wait for 7 (3 queued ≥ 3 → a 3-request merge): four proposals,
	// the full window, with merges growing as the window deepens.
	if got := primary.Engine().InFlight(); got != depth {
		t.Fatalf("primary has %d proposals in flight, want %d", got, depth)
	}
	if n := primary.Stats().CoalescedReqs; n != 3 {
		t.Fatalf("primary coalesced %d requests, want 3 (one 2-request and one 3-request merge)", n)
	}
}

// TestPipelineWindowBound: the engine never holds more uncommitted
// proposals than the configured depth. Observed through the InFlight
// accounting the drain discipline itself uses, with commits suppressed so
// the window genuinely fills.
func TestPipelineWindowBound(t *testing.T) {
	const depth = 3
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) {
		cfg.BatchSize = 1
		cfg.PipelineDepth = depth
	})
	// Drop every PREPARE so nothing commits and the window stays full.
	c.drop = func(_, _ types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgPrepare
	}
	for i := 0; i < 8; i++ {
		c.enqueueRequest(types.ClientID(i+1), mkBatch(types.ClientID(i+1), 1, 2, []types.ShardID{0}, uint64(2+i)))
	}
	c.pump()
	primary := c.replicas[types.ReplicaNode(0, 0)]
	if got := primary.Engine().InFlight(); got != depth {
		t.Fatalf("primary has %d proposals in flight, want the window bound %d", got, depth)
	}
}
