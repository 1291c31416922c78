package sharper

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

type cluster struct {
	t        *testing.T
	cfg      types.Config
	replicas map[types.NodeID]*Replica
	queue    []routed
	drop     func(to types.NodeID, m *types.Message) bool
	client   map[types.NodeID][]*types.Message
	now      time.Time
}

type routed struct {
	to types.NodeID
	m  *types.Message
}

func newCluster(t *testing.T, z, n int) *cluster {
	t.Helper()
	cfg := types.DefaultConfig(z, n)
	c := &cluster{
		t: t, cfg: cfg, now: time.Unix(0, 0),
		replicas: make(map[types.NodeID]*Replica),
		client:   make(map[types.NodeID][]*types.Message),
	}
	kg := crypto.NewKeygen(13)
	peers := make([][]types.NodeID, z)
	for s := 0; s < z; s++ {
		peers[s] = make([]types.NodeID, n)
		for i := 0; i < n; i++ {
			peers[s][i] = types.ReplicaNode(types.ShardID(s), i)
			kg.Register(peers[s][i])
		}
	}
	for s := 0; s < z; s++ {
		for i := 0; i < n; i++ {
			id := peers[s][i]
			ring, _ := kg.Ring(id)
			r := New(Options{
				Config: cfg, Shard: types.ShardID(s), Self: id, Peers: peers[s],
				Auth: ring,
				Send: func(to types.NodeID, m *types.Message) {
					c.queue = append(c.queue, routed{to, m})
				},
				Clock: func() time.Time { return c.now },
			})
			r.Preload(64)
			c.replicas[id] = r
		}
	}
	return c
}

func (c *cluster) pump() {
	for guard := 0; len(c.queue) > 0; guard++ {
		if guard > 100000 {
			c.t.Fatal("pump did not quiesce")
		}
		q := c.queue
		c.queue = nil
		for _, r := range q {
			if c.drop != nil && c.drop(r.to, r.m) {
				continue
			}
			if r.to.Kind == types.KindClient {
				c.client[r.to] = append(c.client[r.to], r.m)
				continue
			}
			if rep, ok := c.replicas[r.to]; ok {
				rep.HandleMessage(r.m)
			}
		}
	}
}

func (c *cluster) responses(client types.ClientID, d types.Digest) int {
	n := 0
	for _, m := range c.client[types.ClientNode(client)] {
		if m.Type == types.MsgResponse && m.Digest == d {
			n++
		}
	}
	return n
}

func mkBatch(client types.ClientID, z int, shards []types.ShardID, keyIdx uint64) *types.Batch {
	var tx types.Txn
	tx.ID = types.TxnID{Client: client, Seq: 1}
	tx.Delta = 3
	for _, s := range shards {
		k := types.Key(uint64(s) + keyIdx*uint64(z))
		tx.Reads = append(tx.Reads, k)
		tx.Writes = append(tx.Writes, k)
	}
	return &types.Batch{Txns: []types.Txn{tx}, Involved: shards}
}

func (c *cluster) submit(client types.ClientID, b *types.Batch) {
	c.queue = append(c.queue, routed{types.ReplicaNode(b.Initiator(), 0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(client), Batch: b, Digest: b.Digest(),
	}})
	c.pump()
}

func TestSharperSingleShard(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0}, 1)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("got %d responses, want >= %d", got, c.cfg.F()+1)
	}
}

// TestSharperCrossShardGlobalRounds: a cst replicates locally at every
// involved shard, runs the two global all-to-all rounds, and executes.
func TestSharperCrossShardGlobalRounds(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 3, []types.ShardID{0, 1, 2}, 2)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	for id, r := range c.replicas {
		if got := r.Chain().Height(); got != 1 {
			t.Fatalf("replica %v height %d, want 1", id, got)
		}
	}
}

// TestSharperGatingBlocksExecution: if the cross-shard commit round cannot
// complete (votes from shard 1 suppressed), no replica executes the cst —
// the local pipeline stalls exactly where the paper's analysis places
// Sharper's WAN cost.
func TestSharperGatingBlocksExecution(t *testing.T) {
	c := newCluster(t, 2, 4)
	c.drop = func(to types.NodeID, m *types.Message) bool {
		return (m.Type == types.MsgSharperPrepare || m.Type == types.MsgSharperCommit) &&
			m.From.Shard == 1 && to.Shard == 0
	}
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 3)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got != 0 {
		t.Fatalf("executed despite severed vote channel: %d responses", got)
	}
	// Heal; the client times out and rebroadcasts to every initiator-shard
	// replica (attack A1), whose renudges trigger reciprocal vote resends.
	c.drop = nil
	req := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest()}
	for i := 0; i < 4; i++ {
		c.queue = append(c.queue, routed{types.ReplicaNode(0, i), req})
	}
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("renudge did not recover: %d responses", got)
	}
}

func TestSharperExecutedCacheAnswersDuplicates(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0}, 5)
	c.submit(1, b)
	first := c.responses(1, b.Digest())
	h := c.replicas[types.ReplicaNode(0, 2)].Chain().Height()
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got <= first {
		t.Fatal("duplicate not answered from cache")
	}
	if c.replicas[types.ReplicaNode(0, 2)].Chain().Height() != h {
		t.Fatal("duplicate re-executed")
	}
}

func TestSharperMisroutedRequestForwarded(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 3, []types.ShardID{1, 2}, 6)
	// Delivered to shard 0 (not the initiator).
	c.queue = append(c.queue, routed{types.ReplicaNode(0, 0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest(),
	}})
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("misrouted cst not recovered: %d", got)
	}
}

func TestQuorumPerShard(t *testing.T) {
	c := newCluster(t, 2, 4)
	r := c.replicas[types.ReplicaNode(0, 0)]
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 7)
	votes := map[types.NodeID]*types.Message{}
	// nf=3 from shard 0 only: not enough.
	for i := 0; i < 3; i++ {
		votes[types.ReplicaNode(0, i)] = &types.Message{}
	}
	if r.quorumPerShard(b, votes) {
		t.Fatal("quorum satisfied with one shard missing")
	}
	for i := 0; i < 2; i++ {
		votes[types.ReplicaNode(1, i)] = &types.Message{}
	}
	if r.quorumPerShard(b, votes) {
		t.Fatal("quorum satisfied with only 2 votes from shard 1")
	}
	votes[types.ReplicaNode(1, 2)] = &types.Message{}
	if !r.quorumPerShard(b, votes) {
		t.Fatal("full per-shard quorum rejected")
	}
}
