package ringbft

import (
	"testing"

	"ringbft/internal/types"
)

// runVerifyWorkload drives one deterministic mixed workload (single-shard
// and cross-shard batches over overlapping keys) through a cluster built
// with the given VerifyWorkers setting, with the verified-signature memo on
// or at capacity 0, and returns per-replica (block digest sequence, store
// digest) observations plus the memo hits summed over all replicas.
func runVerifyWorkload(t *testing.T, verifyWorkers int, memo bool) (map[types.NodeID][]types.Digest, map[types.NodeID]types.Digest, uint64) {
	t.Helper()
	const z, n = 3, 4
	c := newClusterWith(t, z, n, func(cfg *types.Config) { cfg.VerifyWorkers = verifyWorkers })
	if !memo {
		for _, r := range c.replicas {
			r.verifier.SetMemoSize(0)
		}
	}
	var batches []*types.Batch
	for i := uint64(1); i <= 10; i++ {
		shards := []types.ShardID{types.ShardID(i % z)}
		switch i % 3 {
		case 0:
			shards = []types.ShardID{0, 1, 2}
		case 1:
			shards = []types.ShardID{types.ShardID(i % z), types.ShardID((i + 1) % z)}
			if shards[0] > shards[1] {
				shards[0], shards[1] = shards[1], shards[0]
			}
		}
		b := mkBatch(types.ClientID(i), i, z, shards, i%4)
		batches = append(batches, b)
		c.submit(types.ClientID(i), b)
	}
	for _, b := range batches {
		cid := types.ClientID(b.Txns[0].ID.Client)
		if got := c.responses(cid, b.Digest()); got < c.cfg.F()+1 {
			t.Fatalf("verifyWorkers=%d: batch of client %d got %d responses", verifyWorkers, cid, got)
		}
	}
	chains := make(map[types.NodeID][]types.Digest)
	stores := make(map[types.NodeID]types.Digest)
	var hits uint64
	for id, r := range c.replicas {
		for _, blk := range r.Chain().Blocks() {
			chains[id] = append(chains[id], blk.Digest)
		}
		stores[id] = r.Store().Digest()
		hits += r.verifier.MemoHits()
	}
	return chains, stores, hits
}

// TestPropertyVerifyFastPathEquivalence (acceptance bar of the crypto fast
// path): a run whose replicas verify on the fast path — the worker pool,
// the verified-signature memo, or both — commits exactly the same block
// sequences and reaches exactly the same state digests as a run that
// verifies every signature serially every time it is presented —
// byte-identical protocol behavior, only the CPU cost differs.
func TestPropertyVerifyFastPathEquivalence(t *testing.T) {
	serialChains, serialStores, hits := runVerifyWorkload(t, 0, false)
	if hits != 0 {
		t.Fatalf("reference run at memo capacity 0 counted %d memo hits", hits)
	}
	for _, mode := range []struct {
		workers int
		memo    bool
	}{{0, true}, {2, true}, {4, true}, {8, true}, {4, false}} {
		fastChains, fastStores, hits := runVerifyWorkload(t, mode.workers, mode.memo)
		if mode.memo == (hits == 0) {
			t.Fatalf("workers=%d memo=%v: %d memo hits", mode.workers, mode.memo, hits)
		}
		if len(fastChains) != len(serialChains) {
			t.Fatalf("workers=%d memo=%v: replica count mismatch", mode.workers, mode.memo)
		}
		for id, want := range serialChains {
			got := fastChains[id]
			if len(got) != len(want) {
				t.Fatalf("workers=%d memo=%v replica %v: %d blocks, serial run had %d", mode.workers, mode.memo, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d memo=%v replica %v: block %d digest diverges from serial run", mode.workers, mode.memo, id, i)
				}
			}
			if fastStores[id] != serialStores[id] {
				t.Fatalf("workers=%d memo=%v replica %v: state digest diverges from serial run", mode.workers, mode.memo, id)
			}
		}
	}
}
