package store

import (
	"testing"
	"testing/quick"

	"ringbft/internal/types"
)

func TestPreloadOwnership(t *testing.T) {
	kv := NewKV()
	kv.Preload(2, 5, 100)
	if kv.Len() != 100 {
		t.Fatalf("preloaded %d records, want 100", kv.Len())
	}
	// Every preloaded key must belong to shard 2 and equal its key.
	for i := 0; i < 100; i++ {
		k := types.Key(2 + uint64(i)*5)
		if types.OwnerShard(k, 5) != 2 {
			t.Fatalf("key %d not owned by shard 2", k)
		}
		if got := kv.Get(k); got != types.Value(k) {
			t.Fatalf("key %d = %d, want %d", k, got, k)
		}
	}
}

// TestPreloadMatchesSetLoop: the two-slice fill builds exactly the table a
// per-key Set loop builds, and preloading a table that already holds data
// merges the partition into it, keeping the rest of that data.
func TestPreloadMatchesSetLoop(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096, 10007} {
		want, got := NewKV(), NewKV()
		for i := 0; i < n; i++ {
			k := types.Key(1 + uint64(i)*3)
			want.Set(k, types.Value(k))
		}
		got.Preload(1, 3, n)
		if got.Len() != n || got.Digest() != want.Digest() {
			t.Fatalf("n=%d: preload built %d records with a different digest than the Set loop", n, got.Len())
		}
	}
	kv := NewKV()
	kv.Set(2, 77) // shard 2 of 3; not in shard 1's partition
	kv.Set(4, 99) // in shard 1's partition: preload resets it to its key
	kv.Preload(1, 3, 8)
	if kv.Get(2) != 77 || kv.Get(4) != 4 || kv.Len() != 9 {
		t.Fatalf("preload over existing data: got[2]=%d got[4]=%d len=%d", kv.Get(2), kv.Get(4), kv.Len())
	}
}

func TestExecuteTxnLocalOnly(t *testing.T) {
	kv := NewKV()
	kv.Set(10, 100) // shard 0 of z=2 owns even keys
	tx := &types.Txn{Reads: []types.Key{10}, Writes: []types.Key{10}, Delta: 7}
	res, err := kv.ExecuteTxn(tx, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != 107 {
		t.Fatalf("combined = %d, want 107", res)
	}
	if got := kv.Get(10); got != 207 {
		t.Fatalf("value = %d, want 207", got)
	}
}

func TestExecuteTxnMissingRemoteRead(t *testing.T) {
	kv := NewKV()
	tx := &types.Txn{Reads: []types.Key{1}, Writes: []types.Key{0}, Delta: 1} // key 1 on shard 1
	if _, err := kv.ExecuteTxn(tx, 0, 2, nil); err == nil {
		t.Fatal("missing remote read not detected")
	}
	// With the dependency supplied it succeeds.
	res, err := kv.ExecuteTxn(tx, 0, 2, map[types.Key]types.Value{1: 41})
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Fatalf("combined = %d, want 42", res)
	}
}

func TestExecuteTxnPartialIgnoresRemote(t *testing.T) {
	kv := NewKV()
	kv.Set(0, 5)
	tx := &types.Txn{Reads: []types.Key{0, 1}, Writes: []types.Key{0}, Delta: 1}
	res := kv.ExecuteTxnPartial(tx, 0, 2)
	if res != 6 { // remote key 1 contributes zero
		t.Fatalf("partial combined = %d, want 6", res)
	}
	if got := kv.Get(0); got != 11 {
		t.Fatalf("value = %d, want 11", got)
	}
}

func TestExecuteDeterminism(t *testing.T) {
	// Two replicas executing the same transactions reach identical state —
	// the determinism requirement of Section 3.
	f := func(deltas []uint16) bool {
		kv1, kv2 := NewKV(), NewKV()
		kv1.Preload(0, 1, 32)
		kv2.Preload(0, 1, 32)
		for i, d := range deltas {
			tx := &types.Txn{
				Reads:  []types.Key{types.Key(i % 32)},
				Writes: []types.Key{types.Key((i + 7) % 32)},
				Delta:  types.Value(d),
			}
			r1, err1 := kv1.ExecuteTxn(tx, 0, 1, nil)
			r2, err2 := kv2.ExecuteTxn(tx, 0, 1, nil)
			if err1 != nil || err2 != nil || r1 != r2 {
				return false
			}
		}
		return kv1.Digest() == kv2.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestSensitivity(t *testing.T) {
	kv1, kv2 := NewKV(), NewKV()
	kv1.Preload(0, 1, 16)
	kv2.Preload(0, 1, 16)
	if kv1.Digest() != kv2.Digest() {
		t.Fatal("identical stores digest differently")
	}
	kv2.Set(3, 999)
	if kv1.Digest() == kv2.Digest() {
		t.Fatal("digest insensitive to a write")
	}
}

func TestReadLocal(t *testing.T) {
	kv := NewKV()
	kv.Preload(1, 3, 10)
	tx := &types.Txn{Reads: []types.Key{1, 4, 2}} // 1,4 on shard 1; 2 on shard 2
	ks, vs := kv.ReadLocal(tx, 1, 3)
	if len(ks) != 2 || len(vs) != 2 {
		t.Fatalf("ReadLocal returned %d keys, want 2", len(ks))
	}
	for i, k := range ks {
		if vs[i] != kv.Get(k) {
			t.Fatalf("ReadLocal value mismatch at %d", k)
		}
	}
}

func TestLockTableAllOrNothing(t *testing.T) {
	lt := NewLockTable()
	if !lt.TryLock([]types.Key{1, 2, 3}, 100) {
		t.Fatal("fresh lock failed")
	}
	// Overlapping set must acquire nothing.
	if lt.TryLock([]types.Key{3, 4}, 200) {
		t.Fatal("conflicting lock acquired")
	}
	if _, held := lt.HeldBy(4); held {
		t.Fatal("partial acquisition leaked: key 4 locked after failed TryLock")
	}
	if lt.Count() != 3 {
		t.Fatalf("lock count = %d, want 3", lt.Count())
	}
}

func TestLockTableReentrant(t *testing.T) {
	lt := NewLockTable()
	if !lt.TryLock([]types.Key{1, 2}, 7) {
		t.Fatal("first lock failed")
	}
	// Same owner relocking overlapping keys (read and write sets overlap).
	if !lt.TryLock([]types.Key{2, 3}, 7) {
		t.Fatal("re-entrant lock failed")
	}
	lt.Unlock([]types.Key{1, 2, 3}, 7)
	if lt.Count() != 0 {
		t.Fatalf("%d locks leaked", lt.Count())
	}
}

func TestUnlockWrongOwnerNoop(t *testing.T) {
	lt := NewLockTable()
	lt.TryLock([]types.Key{5}, 1)
	lt.Unlock([]types.Key{5}, 2) // not the owner
	if o, held := lt.HeldBy(5); !held || o != 1 {
		t.Fatal("foreign unlock released the lock")
	}
	lt.Unlock([]types.Key{5}, 1)
	lt.Unlock([]types.Key{5}, 1) // idempotent
	if lt.Count() != 0 {
		t.Fatal("unlock not idempotent")
	}
}

// TestLockTableInvariant: after any interleaving of TryLock/Unlock, a
// successful TryLock leaves every requested key held by the caller, a failed
// TryLock changes nothing, and no key is ever held by two owners.
func TestLockTableInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		lt := NewLockTable()
		model := map[types.Key]uint64{} // reference implementation
		for _, op := range ops {
			owner := uint64(op%8) + 1
			keys := []types.Key{types.Key(op % 13), types.Key((op / 13) % 13)}
			if op%3 == 0 {
				lt.Unlock(keys, owner)
				for _, k := range keys {
					if model[k] == owner {
						delete(model, k)
					}
				}
				continue
			}
			free := true
			for _, k := range keys {
				if o, held := model[k]; held && o != owner {
					free = false
				}
			}
			got := lt.TryLock(keys, owner)
			if got != free {
				return false
			}
			if got {
				for _, k := range keys {
					model[k] = owner
				}
			}
		}
		if lt.Count() != len(model) {
			return false
		}
		for k, o := range model {
			if ho, held := lt.HeldBy(k); !held || ho != o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
