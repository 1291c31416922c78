package wal

import (
	"fmt"
	"testing"
	"time"

	"ringbft/internal/store"
	"ringbft/internal/types"
)

// Reference numbers (1 vCPU container host, MemFS — isolates
// framing/encoding cost from disk, so group vs per-append sync differ
// little here):
//
//	BenchmarkAppend/batch=1/sync=group    ~350 ns/op
//	BenchmarkAppend/batch=100/sync=group  ~17 µs/op
//	BenchmarkReplay/records=1000          ~1.8 ms/op
//
// On OSFS, appends are fsync-bound; the group-commit interval is precisely
// the knob that amortizes that cost across a batch of records.

func benchBatch(n int) *types.Batch {
	txns := make([]types.Txn, n)
	for i := range txns {
		txns[i] = types.Txn{
			ID:     types.TxnID{Client: 1, Seq: uint64(i + 1)},
			Reads:  []types.Key{types.Key(i), types.Key(i + 1)},
			Writes: []types.Key{types.Key(i)},
			Delta:  5,
		}
	}
	return &types.Batch{Txns: txns, Involved: []types.ShardID{0}}
}

func BenchmarkAppend(b *testing.B) {
	for _, size := range []int{1, 10, 100} {
		for _, mode := range []string{"group", "every"} {
			b.Run(fmt.Sprintf("batch=%d/sync=%s", size, mode), func(b *testing.B) {
				interval := time.Duration(0)
				if mode == "group" {
					interval = 5 * time.Millisecond
				}
				w, _, err := Open(NewMemFS(), "d", Options{FsyncInterval: interval})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				batch := benchBatch(size)
				results := make([]types.Value, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Append(BlockRecord(types.SeqNum(i+1), types.ReplicaNode(0, 0), batch, results)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			fs := NewMemFS()
			w, _, err := Open(fs, "d", Options{SegmentSize: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			batch := benchBatch(10)
			for i := 0; i < n; i++ {
				if _, err := w.Append(BlockRecord(types.SeqNum(i+1), types.ReplicaNode(0, 0), batch, make([]types.Value, 10))); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, recs, err := Open(fs, "d", Options{SegmentSize: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != n {
					b.Fatalf("replayed %d, want %d", len(recs), n)
				}
				w.Close()
			}
		})
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	snap := &Snapshot{StableSeq: 64, KMax: 64}
	for i := 0; i < 4096; i++ {
		snap.Pairs = append(snap.Pairs, store.Pair{K: types.Key(i), V: types.Value(i * 3)})
	}
	for i := 0; i < 8; i++ {
		snap.Blocks = append(snap.Blocks, SnapBlock{Seq: types.SeqNum(i + 57), Batch: benchBatch(10), Results: make([]types.Value, 10)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := snap.Encode()
		if _, err := DecodeSnapshot(buf); err != nil {
			b.Fatal(err)
		}
	}
}
