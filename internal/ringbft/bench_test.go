package ringbft

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/types"
)

// BenchmarkForwardCopy is the handler cost of one Forward copy at a replica
// of the next shard (3×4 is the benchmark's shape; 2×4 here). "first" is
// the lane copy that creates the cst: tag check, noting the half, keeping
// its certificate as a candidate, and the relay to the peers. "later" is a
// relayed copy counted into the same cst. Neither verifies the certificate.
// Each iteration resets what the copy changed, and stays short of the f+1
// quorum.
func BenchmarkForwardCopy(b *testing.B) {
	c := newCluster(b, 2, 4)
	batch := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := batch.Digest()
	held := holdRing(c, batch, types.MsgForward, 1)
	r := c.replicas[types.ReplicaNode(1, 0)]
	lane, relayed := held[types.ReplicaNode(0, 0)], held[types.ReplicaNode(0, 1)]
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			delete(r.csts, d)
			delete(r.live, d)
			r.fwdSeen = newFIFOWindow[fwdKey, evidence.Msg](fwdSeenCap)
			c.queue = c.queue[:0]
			r.HandleMessage(lane)
		}
	})
	b.Run("later", func(b *testing.B) {
		r.HandleMessage(lane)
		cs := r.csts[d]
		delete(cs.fwdFrom, lane.From)
		b.ReportAllocs()
		for b.Loop() {
			delete(cs.fwdFrom, relayed.From)
			cs.fwdCands = cs.fwdCands[:1]
			r.HandleMessage(relayed)
		}
	})
}

// BenchmarkExecuteCopy is the handler cost of one Execute copy at a locked
// replica of the next shard: "first" is the lane copy, counted and relayed
// to the peers; "later" a relayed copy, counted. Each iteration resets what
// the copy changed, and stays short of the f+1 quorum.
func BenchmarkExecuteCopy(b *testing.B) {
	c := newCluster(b, 2, 4)
	batch := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	held := holdRing(c, batch, types.MsgExecute, 1)
	r := c.replicas[types.ReplicaNode(1, 0)]
	cs := r.csts[batch.Digest()]
	lane, relayed := held[types.ReplicaNode(0, 0)], held[types.ReplicaNode(0, 1)]
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			delete(cs.execFrom, lane.From)
			c.queue = c.queue[:0]
			r.HandleMessage(lane)
		}
		delete(cs.execFrom, lane.From)
	})
	b.Run("later", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			delete(cs.execFrom, relayed.From)
			r.HandleMessage(relayed)
		}
	})
}

// BenchmarkHandleTick is one timer pass of a replica that has executed
// 4,096 csts and has 8 in flight, whose timers are armed but not due: the
// pass visits the in-flight ones and emits nothing.
func BenchmarkHandleTick(b *testing.B) {
	c := newCluster(b, 2, 4)
	r, _ := tickFixture(c)
	b.ReportAllocs()
	for b.Loop() {
		r.HandleTick(c.now)
	}
}

// BenchmarkReplicaSetup is a 3×4 cluster's replica set-up: key generation,
// New and Preload(4096) for each of the 12 replicas. No message is handled.
func BenchmarkReplicaSetup(b *testing.B) {
	cfg := types.DefaultConfig(3, 4)
	ids := make([]types.NodeID, 0, 12)
	for s := 0; s < cfg.Shards; s++ {
		for i := 0; i < cfg.ReplicasPerShard; i++ {
			ids = append(ids, types.ReplicaNode(types.ShardID(s), i))
		}
	}
	send := func(types.NodeID, *types.Message) {}
	b.ReportAllocs()
	for b.Loop() {
		kg := crypto.NewKeygen(7)
		for _, id := range ids {
			kg.Register(id)
		}
		for _, id := range ids {
			ring, err := kg.Ring(id)
			if err != nil {
				b.Fatal(err)
			}
			peers := make([]types.NodeID, cfg.ReplicasPerShard)
			for i := range peers {
				peers[i] = types.ReplicaNode(id.Shard, i)
			}
			r := New(Options{Config: cfg, Shard: id.Shard, Self: id, Peers: peers, Auth: ring, Send: send, Clock: time.Now})
			r.Preload(4096)
		}
	}
}
