package ringbft

import (
	"testing"
	"time"

	"ringbft/internal/types"
)

// runVerifyWorkload drives one deterministic mixed workload (single-shard
// and cross-shard batches over overlapping keys) through a cluster with the
// verified-signature memo on or at capacity 0, and returns per-replica
// (block digest sequence, store digest) observations plus the memo hits
// summed over all replicas.
//
// Shard 1's primary has crashed, so the workload completes only through a
// view change there, and that is what re-presents verified signatures: the
// NewView carries the ViewChange signatures its receivers already checked.
// Clients send each request to every replica of its initiator shard, as a
// client whose primary is silent does.
func runVerifyWorkload(t *testing.T, memo bool) (map[types.NodeID][]types.Digest, map[types.NodeID]types.Digest, uint64) {
	t.Helper()
	const z, n = 3, 4
	c := newCluster(t, z, n)
	if !memo {
		for _, r := range c.replicas {
			r.Verifier.SetMemoSize(0)
		}
	}
	dead := types.ReplicaNode(1, 0)
	c.drop = func(from, to types.NodeID, _ *types.Message) bool { return from == dead || to == dead }
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
		from := types.ClientNode(types.ClientID(i))
		m := &types.Message{Type: types.MsgClientRequest, From: from, Batch: b, Digest: b.Digest()}
		for j := 0; j < n; j++ {
			c.queue = append(c.queue, routed{from, types.ReplicaNode(b.Initiator(), j), m})
		}
		c.pump()
	}
	unanswered := func() int {
		missing := 0
		for _, b := range batches {
			if c.responses(types.ClientID(b.Txns[0].ID.Client), b.Digest()) < c.cfg.F()+1 {
				missing++
			}
		}
		return missing
	}
	for i := 0; i < 20 && unanswered() > 0; i++ {
		c.tick(c.cfg.LocalTimeout + time.Millisecond)
	}
	if missing := unanswered(); missing > 0 {
		t.Fatalf("memo=%v: %d batches got fewer than f+1 responses", memo, missing)
	}
	if v := c.replicas[types.ReplicaNode(1, 1)].Engine().View(); v == 0 {
		t.Fatalf("memo=%v: shard 1 never left the crashed primary's view", memo)
	}
	chains := make(map[types.NodeID][]types.Digest)
	stores := make(map[types.NodeID]types.Digest)
	var hits uint64
	for id, r := range c.replicas {
		for _, blk := range r.Chain().Blocks() {
			chains[id] = append(chains[id], blk.Digest)
		}
		stores[id] = r.Store().Digest()
		hits += r.Verifier.MemoHits()
	}
	return chains, stores, hits
}

// TestPropertyVerifyFastPathEquivalence (acceptance bar of the crypto fast
// path): a run whose replicas answer re-presented signatures from the
// verified-signature memo commits exactly the same block sequences and
// reaches exactly the same state digests as a run that verifies every
// signature every time it is presented — byte-identical protocol behavior,
// only the CPU cost differs.
func TestPropertyVerifyFastPathEquivalence(t *testing.T) {
	refChains, refStores, hits := runVerifyWorkload(t, false)
	if hits != 0 {
		t.Fatalf("reference run at memo capacity 0 counted %d memo hits", hits)
	}
	memoChains, memoStores, hits := runVerifyWorkload(t, true)
	if hits == 0 {
		t.Fatal("memo run counted no memo hits")
	}
	if len(memoChains) != len(refChains) {
		t.Fatal("replica count mismatch")
	}
	for id, want := range refChains {
		got := memoChains[id]
		if len(got) != len(want) {
			t.Fatalf("replica %v: %d blocks, reference run had %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %v: block %d digest diverges from the reference run", id, i)
			}
		}
		if memoStores[id] != refStores[id] {
			t.Fatalf("replica %v: state digest diverges from the reference run", id)
		}
	}
}
