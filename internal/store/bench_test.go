package store

import (
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
