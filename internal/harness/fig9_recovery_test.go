package harness

import (
	"context"
	"testing"
	"time"

	"ringbft/internal/ringbft"
	"ringbft/internal/types"
)

// TestPrimaryCrashRecoversThroughput is the Fig 9 integration test: a
// primary crash mid-run must dent throughput, trigger view changes, and
// recover to the pre-crash level (clients re-target the new primary from
// the view carried in Response messages).
func TestPrimaryCrashRecoversThroughput(t *testing.T) {
	var ctl *Controller
	res, err := Run(Config{
		Protocol: ProtoRingBFT, Shards: 3, ReplicasPerShard: 4,
		BatchSize: 10, CrossShardPct: 0, Clients: 6, ClientWindow: 2,
		Duration: 4 * time.Second, Warmup: 400 * time.Millisecond,
		LatencyScale: 0.02, StripeClients: true, Records: 40000,
		LocalTimeout: 400 * time.Millisecond, RemoteTimeout: 700 * time.Millisecond,
		TransmitTimeout: 1100 * time.Millisecond,
		Nemesis: func(ctx context.Context, c *Controller) {
			ctl = c
			CrashPrimaries(1, time.Second)(ctx, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("timeline: %v", res.Timeline)

	// Shard 0's surviving replicas must have moved past view 0.
	vcSeen := false
	for i := 1; i < ctl.ReplicasPerShard(); i++ {
		if ctl.cl.rt.Node(types.ReplicaNode(0, i)).(*ringbft.Replica).Engine().View() > 0 {
			vcSeen = true
		}
	}
	if !vcSeen {
		t.Fatal("no view change at the crashed shard")
	}
	// Throughput must recover: the final quarter of the run commits at
	// least a third of the pre-crash rate.
	if len(res.Timeline) < 20 {
		t.Fatalf("timeline too short: %v", res.Timeline)
	}
	var pre, post int64
	preN := 10
	for _, v := range res.Timeline[:preN] {
		pre += v
	}
	tail := res.Timeline[len(res.Timeline)*3/4:]
	for _, v := range tail {
		post += v
	}
	preRate := float64(pre) / float64(preN)
	postRate := float64(post) / float64(len(tail))
	if postRate < preRate/3 {
		t.Fatalf("throughput did not recover: pre %.0f/bucket, post %.0f/bucket", preRate, postRate)
	}
}
