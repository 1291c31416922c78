package store

import (
	"math/rand/v2"
	"testing"

	"ringbft/internal/types"
)

func BenchmarkExecuteTxn(b *testing.B) {
	kv := NewKV()
	kv.Preload(0, 1, 1024)
	tx := &types.Txn{Reads: []types.Key{1, 2, 3}, Writes: []types.Key{4, 5}, Delta: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.ExecuteTxn(tx, 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockUnlock(b *testing.B) {
	lt := NewLockTable()
	keys := []types.Key{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lt.TryLock(keys, 1) {
			b.Fatal("lock failed")
		}
		lt.Unlock(keys, 1)
	}
}

func BenchmarkStateDigest(b *testing.B) {
	kv := NewKV()
	kv.Preload(0, 1, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Digest()
	}
}

// BenchmarkPairs is the sorted dump a checkpoint takes twice per replica
// (canonical state for the digest, then the snapshot), at the tcp_mixed
// partition size.
func BenchmarkPairs(b *testing.B) {
	kv := NewKV()
	kv.Preload(1, 3, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Pairs()
	}
}

// BenchmarkPreload is one replica's table set-up at the largest partition a
// benchmark workload uses (tcp_mixed: 65,536 records per shard).
func BenchmarkPreload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewKV().Preload(1, 3, 65536)
	}
}

// BenchmarkGet is one point read of a present key at the tcp_mixed
// partition size, keys visited in random order.
func BenchmarkGet(b *testing.B) {
	const n = 65536
	kv := NewKV()
	kv.Preload(1, 3, n)
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]types.Key, 4096)
	for i := range keys {
		keys[i] = types.Key(1 + 3*rng.Uint64N(n))
	}
	i := 0
	for b.Loop() {
		kv.Get(keys[i%len(keys)])
		i++
	}
}

// BenchmarkInsertRandom writes 65,536 absent keys in random order into an
// empty table, then digests it: the cost of a table built by inserts
// rather than Preload.
func BenchmarkInsertRandom(b *testing.B) {
	const n = 65536
	keys := make([]types.Key, n)
	for i := range keys {
		keys[i] = types.Key(i)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	for b.Loop() {
		kv := NewKV()
		for _, k := range keys {
			kv.Set(k, types.Value(k))
		}
		kv.Digest()
	}
}
