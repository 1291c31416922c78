// Command ringbft-client drives a TCP-deployed RingBFT cluster
// (cmd/ringbft-node): it generates a YCSB-style workload, submits batches,
// waits for f+1 matching replica responses per batch, and reports throughput
// and latency. See cmd/ringbft-node for the topology file format.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/tcpnet"
	"ringbft/internal/topology"
	"ringbft/internal/types"
	"ringbft/internal/workload"
)

func main() {
	var (
		topoPath = flag.String("topology", "cluster.json", "path to the shared topology file")
		id       = flag.Int("id", 1, "client identifier (distinct per client process)")
		listen   = flag.String("listen", "127.0.0.1:0", "address this client listens on for responses")
		batches  = flag.Int("batches", 20, "number of batches to submit")
		batch    = flag.Int("batch", 10, "transactions per batch")
		crossPct = flag.Float64("cross", 0.3, "cross-shard fraction [0,1]")
		involved = flag.Int("involved", 0, "involved shards per cst (0 = all)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-batch completion timeout")

		outboxDepth = flag.Int("outbox-depth", 0,
			"per-peer outbound queue depth (0 = transport default)")
		dialTimeout = flag.Duration("dial-timeout", 0,
			"TCP connect timeout per attempt (0 = transport default)")
		writeTimeout = flag.Duration("write-timeout", 0,
			"TCP write/flush deadline (0 = transport default)")
	)
	flag.Parse()

	topo, err := topology.Load(*topoPath)
	if err != nil {
		log.Fatalf("ringbft-client: %v", err)
	}
	// Replicas dial Response messages back by NodeID, so this client's id
	// and listen address must appear in the topology's "clients" table.
	self := types.ClientNode(types.ClientID(*id))
	transport, err := tcpnet.New(self, *listen, topo.Addrs(), tcpnet.Options{
		OutboxDepth:  *outboxDepth,
		DialTimeout:  *dialTimeout,
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		log.Fatalf("ringbft-client: %v", err)
	}
	defer transport.Close()
	ring, err := topo.ClientRing(types.ClientID(*id))
	if err != nil {
		log.Fatalf("ringbft-client: %v", err)
	}
	clientAddrHint := transport.Addr()
	if want, ok := topo.Addrs()[self]; !ok {
		log.Printf("warning: client %d has no entry in the topology's clients table; replicas cannot respond", *id)
	} else if want != clientAddrHint {
		log.Printf("note: listening on %s; topology advertises %s", clientAddrHint, want)
	}

	inv := *involved
	if inv <= 0 {
		inv = topo.Shards
	}
	gen := workload.New(workload.Config{
		Shards:         topo.Shards,
		ActiveRecords:  topo.Records,
		CrossShardPct:  *crossPct,
		InvolvedShards: inv,
		BatchSize:      *batch,
		Seed:           int64(*id) * 104729,
	})

	cid := types.ClientID(*id)

	fmt.Printf("ringbft-client %d at %s: %d batches × %d txns, %.0f%% cross-shard over %d shards\n",
		*id, clientAddrHint, *batches, *batch, *crossPct*100, topo.Shards)

	var totalTxns int
	var totalLatency time.Duration
	start := time.Now()
	for i := 0; i < *batches; i++ {
		b := gen.NextBatch(cid)
		d := b.Digest()
		req := &types.Message{Type: types.MsgClientRequest, From: self, Batch: b, Digest: d}
		t0 := time.Now()
		transport.Send(types.ReplicaNode(b.Initiator(), 0), req)

		replies := types.NewReplyQuorum(b, d, topo.ReplicasPerShard)
		deadline := time.NewTimer(*timeout)
		rebroadcast := time.NewTicker(2 * time.Second)
	waiting:
		for {
			select {
			case m := <-transport.Inbox():
				// Only a response with a valid pairwise MAC votes, and only
				// toward the f+1 quorum of identical results from replicas
				// of the initiator shard (types.ReplyQuorum). The MAC's
				// bound is the deployment's trust domain: all pairwise keys
				// derive from the shared topology seed (the repo's PKI
				// stand-in, see topology.Keygen), so this rejects responses
				// from anything outside the seed-holding cluster — but a
				// Byzantine replica, holding the seed, could still forge
				// peers' MACs. Closing that would take per-response
				// signatures.
				if crypto.VerifyMessageMAC(ring, m) != nil {
					continue
				}
				if _, ok := replies.Add(m); ok {
					break waiting
				}
			case <-rebroadcast.C:
				// Attack A1: broadcast to every replica of the initiator.
				for r := 0; r < topo.ReplicasPerShard; r++ {
					transport.Send(types.ReplicaNode(b.Initiator(), r), req)
				}
			case <-deadline.C:
				log.Fatalf("batch %d timed out after %v", i, *timeout)
			}
		}
		deadline.Stop()
		rebroadcast.Stop()
		lat := time.Since(t0)
		totalTxns += len(b.Txns)
		totalLatency += lat
		fmt.Printf("batch %3d (%s, %d shards) committed in %v\n",
			i, kind(b), len(b.Involved), lat.Round(time.Millisecond))
	}
	elapsed := time.Since(start)
	fmt.Printf("done: %d txns in %v — %.0f txn/s, avg batch latency %v\n",
		totalTxns, elapsed.Round(time.Millisecond),
		float64(totalTxns)/elapsed.Seconds(),
		(totalLatency / time.Duration(*batches)).Round(time.Millisecond))
}

func kind(b *types.Batch) string {
	if b.IsCrossShard() {
		return "cross-shard"
	}
	return "single-shard"
}
