package ringbft

import (
	"slices"
	"testing"

	"ringbft/internal/types"
)

// enqueueRequest stages a client request without pumping, so a burst of
// requests reaches the primary back-to-back — the arrival pattern that
// fills the pipeline window.
func (c *cluster) enqueueRequest(client types.ClientID, b *types.Batch) {
	from := types.ClientNode(client)
	m := &types.Message{
		Type: types.MsgClientRequest, From: from,
		Batch: b, Digest: b.Digest(),
	}
	c.queue = append(c.queue, routed{from, types.ReplicaNode(b.Initiator(), 0), m})
}

// pipelineWorkload is a fixed burst: ten single-shard batches alternating
// between the two shards plus one cross-shard batch, one transaction each.
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

// TestPipelineRequestIsProposal: with commits suppressed, k ≤ PipelineDepth
// small single-shard requests become k proposals, each one client request
// under the digest its client computed — none held back for fill, none
// merged with another.
func TestPipelineRequestIsProposal(t *testing.T) {
	const depth = 4
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) {
		cfg.BatchSize = 4
		cfg.PipelineDepth = depth
	})
	primary := types.ReplicaNode(0, 0)
	proposed := make(map[types.Digest]bool)
	// Drop every PREPARE so nothing commits; note what the primary proposes.
	c.drop = func(from, _ types.NodeID, m *types.Message) bool {
		if from == primary && m.Type == types.MsgPrePrepare {
			proposed[m.Digest] = true
		}
		return m.Type == types.MsgPrepare
	}
	want := make(map[types.Digest]bool)
	for i := 0; i < depth; i++ {
		b := mkBatch(types.ClientID(i+1), 1, 2, []types.ShardID{0}, uint64(2+i))
		want[b.Digest()] = true
		c.enqueueRequest(types.ClientID(i+1), b)
	}
	c.pump()
	if got := c.replicas[primary].Engine().InFlight(); got != depth {
		t.Fatalf("primary has %d proposals in flight, want one per request (%d)", got, depth)
	}
	if len(proposed) != len(want) {
		t.Fatalf("primary proposed %d digests, want %d", len(proposed), len(want))
	}
	for d := range want {
		if !proposed[d] {
			t.Fatalf("request %x was not proposed under its own digest", d[:4])
		}
	}
}

// TestClientRequestWithReqsDropped: request boundaries are never a client's
// to set, so a client batch that carries Reqs is dropped — not proposed,
// not awaited, not answered — while a plain request behind it commits.
func TestClientRequestWithReqsDropped(t *testing.T) {
	c := newCluster(t, 2, 4)
	a := mkBatch(1, 1, 2, []types.ShardID{0}, 2)
	b := mkBatch(2, 1, 2, []types.ShardID{0}, 3)
	bad := &types.Batch{Txns: slices.Concat(a.Txns, b.Txns), Involved: a.Involved, Reqs: []uint32{1, 1}}
	c.submit(1, bad)
	for id, r := range c.replicas {
		if h := r.Chain().Height(); h != 0 || len(r.Awaiting) != 0 || len(r.Queue) != 0 {
			t.Fatalf("%v took the request: ledger height %d, awaiting %d, queued %d",
				id, h, len(r.Awaiting), len(r.Queue))
		}
	}
	if got := c.responses(1, bad.Digest()); got != 0 {
		t.Fatalf("request with boundaries answered %d times", got)
	}
	c.submit(1, a)
	if got := c.responses(1, a.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("plain request got %d responses, want >= %d", got, c.cfg.F()+1)
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
