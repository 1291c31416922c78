package ahl

import (
	"testing"
	"testing/quick"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

func TestDecisionBatchRoundTrip(t *testing.T) {
	f := func(raw [32]byte, commit bool) bool {
		d := types.Digest(raw)
		b := decisionBatch(d, commit)
		got, gotCommit, ok := parseDecision(b)
		return ok && got == d && gotCommit == commit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDecisionRejectsOrdinaryBatches(t *testing.T) {
	b := &types.Batch{Txns: []types.Txn{{ID: types.TxnID{Client: 1, Seq: 1}, Writes: []types.Key{1, 2, 3, 4}}}}
	if _, _, ok := parseDecision(b); ok {
		t.Fatal("ordinary batch parsed as decision")
	}
	empty := &types.Batch{}
	if _, _, ok := parseDecision(empty); ok {
		t.Fatal("empty batch parsed as decision")
	}
}

func TestDecisionBatchDigestsDistinct(t *testing.T) {
	d1, d2 := types.Digest{1}, types.Digest{2}
	if decisionBatch(d1, true).Digest() == decisionBatch(d2, true).Digest() {
		t.Fatal("decision batches for different csts collide")
	}
	if decisionBatch(d1, true).Digest() == decisionBatch(d1, false).Digest() {
		t.Fatal("commit and abort decisions collide")
	}
}

// deterministic 2-shard + committee cluster wired through a pump queue.
type ahlCluster struct {
	t       *testing.T
	cfg     types.Config
	members map[types.NodeID]interface {
		HandleMessage(*types.Message)
		HandleTick(time.Time)
	}
	queue  []routedMsg
	client map[types.NodeID][]*types.Message
	now    time.Time
	// tamper, when set, rewrites each message before delivery.
	tamper func(to types.NodeID, m *types.Message) *types.Message
}

type routedMsg struct {
	to types.NodeID
	m  *types.Message
}

func newAHLCluster(t *testing.T, z, n int) *ahlCluster {
	t.Helper()
	cfg := types.DefaultConfig(z, n)
	c := &ahlCluster{
		t: t, cfg: cfg, now: time.Unix(0, 0),
		members: make(map[types.NodeID]interface {
			HandleMessage(*types.Message)
			HandleTick(time.Time)
		}),
		client: make(map[types.NodeID][]*types.Message),
	}
	kg := crypto.NewKeygen(9)
	committee := make([]types.NodeID, n)
	for i := range committee {
		committee[i] = types.CommitteeNode(i)
		kg.Register(committee[i])
	}
	shardPeers := make([][]types.NodeID, z)
	for s := 0; s < z; s++ {
		shardPeers[s] = make([]types.NodeID, n)
		for i := 0; i < n; i++ {
			shardPeers[s][i] = types.ReplicaNode(types.ShardID(s), i)
			kg.Register(shardPeers[s][i])
		}
	}
	send := func() Sender {
		return func(to types.NodeID, m *types.Message) {
			c.queue = append(c.queue, routedMsg{to, m})
		}
	}
	clock := func() time.Time { return c.now }
	for i, id := range committee {
		ring, _ := kg.Ring(id)
		c.members[id] = NewCommittee(CommitteeOptions{
			Config: cfg, Self: id, Peers: committee, ShardPeers: shardPeers,
			Auth: ring, Send: send(), Clock: clock,
		})
		_ = i
	}
	for s := 0; s < z; s++ {
		for i := 0; i < n; i++ {
			id := shardPeers[s][i]
			ring, _ := kg.Ring(id)
			r := NewReplica(ReplicaOptions{
				Config: cfg, Shard: types.ShardID(s), Self: id,
				Peers: shardPeers[s], Committee: committee,
				Auth: ring, Send: send(), Clock: clock,
			})
			r.Preload(64)
			c.members[id] = r
		}
	}
	return c
}

func (c *ahlCluster) pump() {
	for guard := 0; len(c.queue) > 0; guard++ {
		if guard > 100000 {
			c.t.Fatal("pump did not quiesce")
		}
		q := c.queue
		c.queue = nil
		for _, r := range q {
			if c.tamper != nil {
				r.m = c.tamper(r.to, r.m)
			}
			if r.to.Kind == types.KindClient {
				c.client[r.to] = append(c.client[r.to], r.m)
				continue
			}
			if m, ok := c.members[r.to]; ok {
				m.HandleMessage(r.m)
			}
		}
	}
}

func (c *ahlCluster) responses(client types.ClientID, d types.Digest) int {
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

func TestAHLSingleShard(t *testing.T) {
	c := newAHLCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{1}, 2)
	c.queue = append(c.queue, routedMsg{types.ReplicaNode(1, 0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest(),
	}})
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
}

// TestAHLCrossShard2PC: a cst goes committee-order -> shard vote -> decision
// -> execution, and the initiator shard answers the client.
func TestAHLCrossShard2PC(t *testing.T) {
	c := newAHLCluster(t, 3, 4)
	b := mkBatch(1, 3, []types.ShardID{0, 2}, 3)
	c.queue = append(c.queue, routedMsg{types.CommitteeNode(0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest(),
	}})
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	// Both involved shards appended the block; the uninvolved one did not.
	for id, m := range c.members {
		r, ok := m.(*Replica)
		if !ok {
			continue
		}
		want := 0
		if id.Shard == 0 || id.Shard == 2 {
			want = 1
		}
		if got := r.Chain().Height(); got != want {
			t.Fatalf("replica %v height %d, want %d", id, got, want)
		}
	}
}

func TestAHLDuplicateClientRequestReDelivers(t *testing.T) {
	c := newAHLCluster(t, 2, 4)
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 4)
	req := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest()}
	c.queue = append(c.queue, routedMsg{types.CommitteeNode(0), req})
	c.pump()
	first := c.responses(1, b.Digest())
	if first == 0 {
		t.Fatal("initial 2PC failed")
	}
	// Retransmission must re-broadcast the decision; shards answer from the
	// executed cache rather than re-executing.
	h := heightOf(t, c, types.ReplicaNode(0, 1))
	c.queue = append(c.queue, routedMsg{types.CommitteeNode(0), req})
	c.pump()
	if heightOf(t, c, types.ReplicaNode(0, 1)) != h {
		t.Fatal("duplicate request re-executed")
	}
}

func heightOf(t *testing.T, c *ahlCluster, id types.NodeID) int {
	t.Helper()
	r, ok := c.members[id].(*Replica)
	if !ok {
		t.Fatalf("%v is not a replica", id)
	}
	return r.Chain().Height()
}

// TestAHLCommitteeProvesPrepare: a committee member signs garbage on its
// Commits while their MACs stay valid, so its peers decide on certificates
// that hold the garbage. Shard replicas verify every AHLPrepare's
// certificate, so the committee proves it first: an honest member whose
// proof needs the late honest Commit sends nothing at the decision and
// sends on its next nudge, every AHLPrepare on the wire carries a
// certificate that verifies, and the 2PC completes. (The faulty member's
// own certificate holds its real signature and proves at once.)
func TestAHLCommitteeProvesPrepare(t *testing.T) {
	c := newAHLCluster(t, 2, 4)
	bad := types.CommitteeNode(2)
	var prepares []*types.Message
	c.tamper = func(_ types.NodeID, m *types.Message) *types.Message {
		switch {
		case m.Type == types.MsgCommit && m.From == bad && len(m.Sig) > 0:
			cp := *m
			cp.Sig = make([]byte, len(m.Sig))
			return &cp
		case m.Type == types.MsgAHLPrepare:
			prepares = append(prepares, m)
		}
		return m
	}
	b := mkBatch(1, 2, []types.ShardID{0, 1}, 5)
	c.queue = append(c.queue, routedMsg{types.CommitteeNode(0), &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest(),
	}})
	c.pump()
	for _, m := range prepares {
		if m.From != bad {
			t.Fatalf("honest member %v sent an AHLPrepare at the decision; setup wants every honest certificate to hold the garbage", m.From)
		}
	}
	c.now = c.now.Add(c.cfg.RemoteTimeout + time.Millisecond)
	for i := 0; i < c.cfg.ReplicasPerShard; i++ {
		c.members[types.CommitteeNode(i)].HandleTick(c.now)
	}
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	a := c.members[types.ReplicaNode(0, 0)].(*Replica).Auth
	for _, m := range prepares {
		if _, err := pbft.VerifyCert(a, types.CommitteeShard, m.Digest, m.Cert, c.cfg.NF(), nil); err != nil {
			t.Fatalf("AHLPrepare from %v carries a certificate that does not verify: %v", m.From, err)
		}
	}
}
