package chaos

import (
	"fmt"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/harness"
	"ringbft/internal/ringbft"
	"ringbft/internal/types"
	"ringbft/internal/workload"
)

// The signature budget is a gate that counts instead of timing: on the
// deterministic logical-time engine a fault-free run spends exactly the same
// Ed25519 calls on every host, so a regression in what gets signed or
// verified — like the fault-free straggler replies that once re-signed and
// re-verified a Commit per peer per block — fails here, not in a benchmark
// someone has to read.

// outsideCst tells apart the signatures that are not a per-block cost, so
// they are counted outside the budget: checkpoint votes are periodic, and
// RemoteView complaints (Fig 6) are sent when the remote timer fires.
func outsideCst(msg []byte) bool {
	if len(msg) != types.SigBytesLen {
		return false
	}
	t := types.MsgType(msg[0])
	return t == types.MsgCheckpoint || t == types.MsgRemoteView
}

// runBudget drives a fault-free RingBFT cluster whose clients send only
// single-shard batches (involved == 0) or only csts over `involved` shards,
// with every replica's authenticator counted (every Ed25519 call that reaches
// its key ring), and returns per replica the counts and the number of
// blocks it executed.
func runBudget(t *testing.T, shards, involved int) (map[types.NodeID]*crypto.CountingAuth, map[types.NodeID]int) {
	t.Helper()
	// One closed-loop client: no cst ever waits in a lock queue behind
	// another, so no remote or transmit timer fires and the counts are the
	// protocol's own cost, not the schedule's.
	sc := Scenario{
		Protocol: harness.ProtoRingBFT, Fault: FaultNone, Seed: 7,
		Shards: shards, Clients: 1, Horizon: 600,
	}.Normalize()
	counts := make(map[types.NodeID]*crypto.CountingAuth)
	c, err := newCluster(sc, func(id types.NodeID, a crypto.Authenticator) crypto.Authenticator {
		counts[id] = &crypto.CountingAuth{Authenticator: a, Apart: outsideCst}
		return counts[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	cross := 0.0
	if involved > 0 {
		cross = 1
	}
	for _, cl := range c.clients {
		cl.gen = workload.New(workload.Config{
			Shards: sc.Shards, ActiveRecords: sc.Records, BatchSize: sc.BatchSize,
			CrossShardPct: cross, InvolvedShards: involved,
			Clients: sc.Clients, Seed: sc.Seed + int64(cl.id)*7919,
		})
	}
	for c.tick < sc.Horizon {
		if err := c.step(nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, cl := range c.clients {
		cl.paused = true
	}
	for i := 0; i < 200 && (i < 20 || len(c.queue) > 0); i++ { // drain the tail
		if err := c.step(nil); err != nil {
			t.Fatal(err)
		}
	}
	blocks := make(map[types.NodeID]int, len(c.order))
	for _, id := range c.order {
		chain := c.nodes[id].(*ringbft.Replica).Chain()
		for _, b := range chain.Blocks()[1:] { // the suffix checkpoints have not pruned
			if b.Batch.IsCrossShard() != (involved > 0) {
				t.Fatalf("replica %v executed a batch of the wrong kind (involved %v)", id, b.Batch.Involved)
			}
		}
		blocks[id] = chain.Height()
	}
	return counts, blocks
}

// TestSignatureBudgetSingleShard: outside checkpoints a replica spends no
// signature at all on single-shard traffic — every phase is MAC'd.
func TestSignatureBudgetSingleShard(t *testing.T) {
	counts, blocks := runBudget(t, 2, 0)
	for id, a := range counts {
		if blocks[id] < 20 || a.ApartSigns.Load() == 0 {
			t.Fatalf("replica %v: %d blocks, %d checkpoints — run too short to gate anything", id, blocks[id], a.ApartSigns.Load())
		}
		if a.Signs.Load() != 0 || a.Verifies.Load() != 0 {
			t.Errorf("replica %v spent %d Sign / %d Verify on %d single-shard blocks outside checkpoints, want 0/0",
				id, a.Signs.Load(), a.Verifies.Load(), blocks[id])
		}
	}
}

// TestSignatureBudgetCrossShard: a cst over z shards costs each replica of
// each involved shard exactly 2 signatures — its own Commit and its own
// Forward — and no verification at all. Peers' Commits count on their MACs;
// their signatures are held, unverified, and this replica proves its own
// certificate only when it hands it to someone who will check it (a Forward
// retransmission or the answer to a repeated complaint), which a fault-free
// run never needs. Forward copies are counted under pairwise ring tags at
// every shard, so the previous shard's certificate is verified only when it
// becomes proof for someone else (a view-change justification, a
// first-rotation complaint), which a fault-free run never needs either. The
// Forward signature is verified only as evidence, and the Execute is not
// signed, so none of these depend on z or on the shard's place in the ring.
//
// z = 5 is gated at the same numbers, and it is the only shape whose
// RemoteView traffic (counted apart, see outsideCst) is not zero. That is a
// timer, not run-boundary accounting: when the drain stops every cst has
// executed on every replica and the queue is empty. The remote timer
// (RemoteTimeout, 20 ticks) fires on this fault-free run at shard 1, whose
// wait for the second-rotation Execute spans four other shards' consensus;
// shard 1 signs a RemoteView per firing (2–3 per replica over the run),
// shard 0 verifies them (10–11 per replica; its apart count of 14–15 also
// holds the 4 checkpoint-vote verifications every replica spends) and
// answers with retransmissions that cost no further signature. Each
// complaint is answered before its sender complains again, so no
// retransmission is proven. Those complaints follow an accepted Forward
// quorum, so they prove no certificate either.
func TestSignatureBudgetCrossShard(t *testing.T) {
	const perSign, perVerify = 2, 0
	for _, z := range []int{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("z=%d", z), func(t *testing.T) {
			counts, blocks := runBudget(t, z, z)
			for id, a := range counts {
				n := int64(blocks[id])
				if n < 10 {
					t.Fatalf("replica %v executed %d csts — run too short to gate anything", id, n)
				}
				signs, verifies := a.Signs.Load(), a.Verifies.Load()
				t.Logf("replica %v: %d csts, %.2f Sign / %.2f Verify per cst (apart: %d Sign, %d Verify)",
					id, n, float64(signs)/float64(n), float64(verifies)/float64(n), a.ApartSigns.Load(), a.ApartVerifies.Load())
				if signs != perSign*n || verifies != perVerify*n {
					t.Errorf("replica %v: %d Sign / %d Verify for %d csts, want exactly %d / %d per cst",
						id, signs, verifies, n, perSign, perVerify)
				}
			}
		})
	}
}
