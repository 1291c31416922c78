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
	"ringbft/internal/harness"
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
	// The node layout ringbft-node builds. Responses are checked with this
	// client's own ring, so the layout needs no replica keys.
	layout, err := harness.NewTopology(harness.ProtoRingBFT, topo.Shards, topo.ReplicasPerShard, topo.Seed, true, nil)
	if err != nil {
		log.Fatalf("ringbft-client: %v", err)
	}
	reqs := harness.NewClient(layout, cid)

	fmt.Printf("ringbft-client %d at %s: %d batches × %d txns, %.0f%% cross-shard over %d shards\n",
		*id, clientAddrHint, *batches, *batch, *crossPct*100, topo.Shards)

	var totalTxns int
	var totalLatency time.Duration
	start := time.Now()
	for i := 0; i < *batches; i++ {
		transport.Send(reqs.Send(gen.NextBatch(cid), time.Now()))
		deadline := time.NewTimer(*timeout)
		rebroadcast := time.NewTicker(rebroadcastAfter / 2)
		var done *harness.Request
		for done == nil {
			select {
			case m := <-transport.Inbox():
				// Only a response with a valid pairwise MAC counts toward
				// the quorum. The MAC's bound is the deployment's trust
				// domain: all pairwise keys derive from the shared topology
				// seed (the repo's PKI stand-in, see topology.Keygen), so
				// this rejects responses from anything outside the
				// seed-holding cluster — but a Byzantine replica, holding
				// the seed, could still forge peers' MACs. Closing that
				// would take per-response signatures.
				if crypto.VerifyMessageMAC(ring, m) == nil {
					done = reqs.Deliver(m)
				}
			case <-rebroadcast.C:
				// Attack A1: broadcast to every replica of the initiator.
				for _, r := range reqs.Due(time.Now(), rebroadcastAfter) {
					for _, to := range layout.Fallback(r.Batch) {
						transport.Send(to, r.Msg)
					}
				}
			case <-deadline.C:
				log.Fatalf("batch %d timed out after %v", i, *timeout)
			}
		}
		deadline.Stop()
		rebroadcast.Stop()
		lat := time.Since(done.Started)
		totalTxns += len(done.Batch.Txns)
		totalLatency += lat
		fmt.Printf("batch %3d (%s, %d shards) committed in %v\n",
			i, kind(done.Batch), len(done.Batch.Involved), lat.Round(time.Millisecond))
	}
	elapsed := time.Since(start)
	fmt.Printf("done: %d txns in %v — %.0f txn/s, avg batch latency %v\n",
		totalTxns, elapsed.Round(time.Millisecond),
		float64(totalTxns)/elapsed.Seconds(),
		(totalLatency / time.Duration(*batches)).Round(time.Millisecond))
}

// rebroadcastAfter is how long a batch waits on the contacted replica
// before the client broadcasts it to the whole initiator shard.
const rebroadcastAfter = 2 * time.Second

func kind(b *types.Batch) string {
	if b.IsCrossShard() {
		return "cross-shard"
	}
	return "single-shard"
}
