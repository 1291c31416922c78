package ringbft

import (
	"slices"
	"testing"

	"ringbft/internal/types"
)

// deepCopy returns b with every slice freshly allocated: equal contents at
// a different address.
func deepCopy(b *types.Batch) *types.Batch {
	cp := &types.Batch{Involved: slices.Clone(b.Involved), Reqs: slices.Clone(b.Reqs)}
	for _, t := range b.Txns {
		t.Reads, t.Writes = slices.Clone(t.Reads), slices.Clone(t.Writes)
		cp.Txns = append(cp.Txns, t)
	}
	return cp
}

// TestForwardCopyContentCheck: a Forward copy is accepted without hashing
// only when its body equals the batch the cst adopted under the copy's
// digest; every accept/drop decision is the one hashing each copy makes.
func TestForwardCopyContentCheck(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	held := holdRing(c, b, types.MsgForward, 1)
	forged := deepCopy(b)
	forged.Txns[0].Delta++ // same claimed digest, different body

	// The lane copy of s0/r1 makes s1/r1 adopt b under d.
	r := c.replicas[types.ReplicaNode(1, 1)]
	r.HandleMessage(held[types.ReplicaNode(0, 1)])
	cs := r.csts[d]
	if cs == nil || cs.batch == nil || !cs.batch.Equal(b) {
		t.Fatal("lane copy did not adopt the batch")
	}

	// A copy whose ring tag verifies (the tag covers the canonical tuple,
	// not the body) but whose body is not b is dropped uncounted.
	bad := clone(held[types.ReplicaNode(0, 2)])
	bad.Batch = forged
	r.HandleMessage(bad)
	if _, counted := cs.fwdFrom[bad.From]; counted {
		t.Fatal("a copy claiming d with a different body was counted")
	}
	if !cs.batch.Equal(b) {
		t.Fatal("a forged copy replaced the adopted batch")
	}

	// An identical copy at another address, from another sender, counts.
	good := clone(held[types.ReplicaNode(0, 3)])
	good.Batch = deepCopy(b)
	r.HandleMessage(good)
	if _, counted := cs.fwdFrom[good.From]; !counted {
		t.Fatal("an identical copy from another sender was not counted")
	}

	// A replica that adopted nothing hashes the copy and drops it.
	fresh := c.replicas[types.ReplicaNode(1, 2)]
	lane := clone(held[types.ReplicaNode(0, 2)])
	lane.Batch = forged
	fresh.HandleMessage(lane)
	if _, ok := fresh.csts[d]; ok {
		t.Fatal("a replica with no adopted batch accepted a copy whose body does not hash to its digest")
	}
}

// TestHeadOfLineRetryUnlocksItsKeys: a cross-shard entry blocked at the
// head of the lock queue derives its lock set once, keeps it across
// retries, takes exactly those keys once they free up, and releases them
// at execution, leaving every lock table empty.
func TestHeadOfLineRetryUnlocksItsKeys(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	const foreign = 0xdead
	shard0 := []*Replica{}
	for i := 0; i < 4; i++ {
		r := c.replicas[types.ReplicaNode(0, i)]
		if !r.locks.TryLock(r.localKeys(b), foreign) {
			t.Fatal("foreign lock not taken")
		}
		shard0 = append(shard0, r)
	}
	c.submit(1, b)

	const k = 5
	for _, r := range shard0 {
		ent := r.lockQueue[r.kmax()+1]
		if ent == nil || ent.digest != d {
			t.Fatalf("%v: the cst is not at the head of the lock queue", r.Self)
		}
		keys := ent.keys
		for range k {
			r.drainLockQueue()
		}
		if ent.keys == nil || &ent.keys[0] != &keys[0] {
			t.Fatalf("%v: the lock set was derived again on a retry", r.Self)
		}
		for _, key := range ent.keys {
			if owner, _ := r.locks.HeldBy(key); owner != foreign {
				t.Fatalf("%v: a blocked entry took key %d", r.Self, key)
			}
		}
		r.locks.Unlock(ent.keys, foreign)
		r.drainLockQueue()
		// A read-modify-write key is in both the read and the write set.
		if got, want := r.locks.Count(), len(slices.Compact(slices.Sorted(slices.Values(ent.keys)))); got != want {
			t.Fatalf("%v: %d keys locked, want the entry's %d", r.Self, got, want)
		}
		for _, key := range ent.keys {
			if owner, _ := r.locks.HeldBy(key); owner != lockOwner(d) {
				t.Fatalf("%v: key %d held by %x, want the entry", r.Self, key, owner)
			}
		}
	}
	c.pump()
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	for id, r := range c.replicas {
		if n := r.Stats().LockedKeys; n != 0 {
			t.Fatalf("replica %v leaked %d locks", id, n)
		}
	}
	c.assertNoExecErrors()
}
