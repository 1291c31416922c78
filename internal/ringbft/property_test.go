package ringbft

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ringbft/internal/host"
	"ringbft/internal/types"
)

// TestPropertyConflictingWorkloadConverges (Theorems 6.2 + 6.3): for random
// workloads of overlapping cross-shard and single-shard batches, every batch
// completes (no deadlock), locks drain to zero, ledgers verify, and all
// replicas of every shard converge to identical stores.
func TestPropertyConflictingWorkloadConverges(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		const z, n = 3, 4
		c := newCluster(t, z, n)

		// Build batches over a tiny key space (8 records per shard) so
		// conflicts are the norm, with random involved sets.
		var batches []*types.Batch
		for i, r := range raw {
			count := int(r%3) + 1 // 1..3 involved shards
			start := int(r) % z
			var shards []types.ShardID
			for k := 0; k < count; k++ {
				shards = append(shards, types.ShardID((start+k)%z))
			}
			// sort into ring order
			for a := 1; a < len(shards); a++ {
				for b := a; b > 0 && shards[b] < shards[b-1]; b-- {
					shards[b], shards[b-1] = shards[b-1], shards[b]
				}
			}
			// dedup
			uniq := shards[:1]
			for _, s := range shards[1:] {
				if s != uniq[len(uniq)-1] {
					uniq = append(uniq, s)
				}
			}
			b := mkBatch(types.ClientID(i+1), uint64(i+1), z, uniq, uint64(rng.Intn(8)))
			batches = append(batches, b)
		}
		// Inject all at once so consensus interleaves.
		for _, b := range batches {
			m := &types.Message{
				Type: types.MsgClientRequest, From: host.ClientOf(b),
				Batch: b, Digest: b.Digest(),
			}
			c.queue = append(c.queue, routed{host.ClientOf(b), types.ReplicaNode(b.Initiator(), 0), m})
		}
		c.pump()
		// A conflicting batch may be parked behind a lock holder whose
		// Execute rotation has completed within the same pump; tick a few
		// times to flush retransmissions if any message raced.
		for i := 0; i < 3; i++ {
			c.tick(c.cfg.TransmitTimeout + time.Millisecond)
		}

		// Every batch answered with f+1 responses.
		for _, b := range batches {
			cid := types.ClientID(b.Txns[0].ID.Client)
			if c.responses(cid, b.Digest()) < c.cfg.F()+1 {
				return false
			}
		}
		// No leaked locks, verified ledgers, convergent stores.
		for s := 0; s < z; s++ {
			var ref *Replica
			for i := 0; i < n; i++ {
				r := c.replicas[types.ReplicaNode(types.ShardID(s), i)]
				if r.Stats().LockedKeys != 0 {
					return false
				}
				if err := r.Chain().Verify(); err != nil {
					return false
				}
				if ref == nil {
					ref = r
					continue
				}
				if r.Store().Digest() != ref.Store().Digest() {
					return false
				}
			}
		}
		// Conflicting cross-shard blocks ordered identically everywhere.
		var refOrder []types.Digest
		for s := 0; s < z; s++ {
			for i := 0; i < n; i++ {
				order := c.replicas[types.ReplicaNode(types.ShardID(s), i)].Chain().CrossOrder()
				filtered := order // all csts here touch overlapping keys often; compare common subsequence
				if refOrder == nil {
					refOrder = filtered
					continue
				}
				// Check pairwise order consistency on shared digests.
				pos := make(map[types.Digest]int, len(refOrder))
				for p, d := range refOrder {
					pos[d] = p
				}
				last := -1
				for _, d := range filtered {
					if p, ok := pos[d]; ok {
						if p < last {
							return false
						}
						last = p
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLockQueueSequenceOrder: the π/k_max mechanism acquires locks
// strictly in sequence order regardless of commit arrival order (Example
// 4.4). Simulated directly against a replica's lock queue.
func TestPropertyLockQueueSequenceOrder(t *testing.T) {
	f := func(perm []uint8) bool {
		if len(perm) == 0 || len(perm) > 16 {
			return true
		}
		c := newCluster(t, 1, 4)
		r := c.replicas[types.ReplicaNode(0, 0)]
		k := len(perm)
		// Build k single-shard batches with disjoint keys and deliver
		// their commits in the permuted order.
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		for i, p := range perm {
			j := int(p) % k
			order[i%k], order[j] = order[j], order[i%k]
		}
		batches := make([]*types.Batch, k)
		for i := 0; i < k; i++ {
			batches[i] = mkBatch(1, uint64(i+1), 1, []types.ShardID{0}, uint64(i))
		}
		for _, idx := range order {
			r.onCommitted(types.SeqNum(idx+1), batches[idx], batches[idx].Digest(), nil)
		}
		// Everything must have executed exactly once, k_max = k.
		return r.Stats().KMax == types.SeqNum(k) && r.Stats().LedgerHeight == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointsGarbageCollectDuringRingOperation: a long run of
// transactions advances the stable checkpoint and bounds the engine log.
func TestCheckpointsGarbageCollectDuringRingOperation(t *testing.T) {
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) { cfg.CheckpointInterval = 8 })
	for i := uint64(1); i <= 40; i++ {
		shards := []types.ShardID{types.ShardID(i % 2)}
		if i%4 == 0 {
			shards = []types.ShardID{0, 1}
		}
		b := mkBatch(types.ClientID(i), i, 2, shards, i)
		c.submit(types.ClientID(i), b)
	}
	for id, r := range c.replicas {
		if got := r.Engine().StableSeq(); got == 0 {
			t.Fatalf("replica %v never checkpointed", id)
		}
		if got := r.Engine().LogSize(); got > 64 {
			t.Fatalf("replica %v log grew to %d entries (GC broken)", id, got)
		}
	}
}

// TestAllToAllAblationStillCorrect: the quadratic-forwarding ablation mode
// must preserve correctness (it only changes who sends to whom).
func TestAllToAllAblationStillCorrect(t *testing.T) {
	c := newCluster(t, 3, 4)
	for _, r := range c.replicas {
		r.allToAll = true
	}
	b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("all-to-all mode broke consensus: %d responses", got)
	}
	for id, r := range c.replicas {
		if n := r.Stats().LockedKeys; n != 0 {
			t.Fatalf("replica %v leaked %d locks", id, n)
		}
	}
}

// TestLossyLinksEventuallyCommit (safety under asynchrony + liveness under
// eventual delivery): with 20% random message loss between shards, timers
// recover every transaction.
func TestLossyLinksEventuallyCommit(t *testing.T) {
	c := newCluster(t, 2, 4)
	rng := rand.New(rand.NewSource(99))
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if from.Kind == types.KindReplica && to.Kind == types.KindReplica && from.Shard != to.Shard {
			return rng.Float64() < 0.2
		}
		return false
	}
	var batches []*types.Batch
	for i := uint64(1); i <= 5; i++ {
		b := mkBatch(types.ClientID(i), i, 2, []types.ShardID{0, 1}, 10+i)
		batches = append(batches, b)
		c.submit(types.ClientID(i), b)
	}
	// Drive timers until everything lands (bounded rounds).
	for round := 0; round < 20; round++ {
		done := true
		for _, b := range batches {
			if c.responses(types.ClientID(b.Txns[0].ID.Client), b.Digest()) < c.cfg.F()+1 {
				done = false
			}
		}
		if done {
			break
		}
		c.tick(c.cfg.TransmitTimeout + time.Millisecond)
	}
	for _, b := range batches {
		cid := types.ClientID(b.Txns[0].ID.Client)
		if got := c.responses(cid, b.Digest()); got < c.cfg.F()+1 {
			t.Fatalf("batch of client %d never recovered under loss: %d responses", cid, got)
		}
	}
}

// TestByzantineForwardRejected: a Forward with a forged certificate must not
// start consensus at the next shard.
func TestByzantineForwardRejected(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 3)
	d := b.Digest()
	// Forge a Forward from shard 0 replica 0 with an empty certificate.
	forged := &types.Message{
		Type: types.MsgForward, From: types.ReplicaNode(0, 0), Shard: 0,
		Seq: 1, Digest: d, Batch: b,
	}
	for i := 0; i < 4; i++ {
		c.queue = append(c.queue, routed{types.ReplicaNode(0, 0), types.ReplicaNode(1, i), forged})
	}
	c.pump()
	for i := 0; i < 4; i++ {
		r := c.replicas[types.ReplicaNode(1, i)]
		if r.Chain().Height() != 0 {
			t.Fatalf("replica s1/r%d executed a forged Forward", i)
		}
		if _, proposed := r.Proposed[d]; proposed {
			t.Fatalf("replica s1/r%d proposed from a forged Forward", i)
		}
	}
}
