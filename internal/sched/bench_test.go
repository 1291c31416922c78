package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"ringbft/internal/types"
)

// benchTxns builds a single-shard batch of n read-modify-write transactions
// with 8 reads and 8 writes each. Low conflict gives every transaction its
// own 16-key stripe (the paper's striped-uniform YCSB regime: one conflict
// layer); high conflict draws every key from a 24-key hot set so the
// conflict graph is deep.
func benchTxns(n int, highConflict bool) []types.Txn {
	rng := rand.New(rand.NewSource(int64(n)))
	txns := make([]types.Txn, n)
	for i := range txns {
		t := &txns[i]
		t.ID = types.TxnID{Client: 1, Seq: uint64(i + 1)}
		t.Delta = types.Value(i)
		for j := 0; j < 8; j++ {
			if highConflict {
				t.Reads = append(t.Reads, types.Key(rng.Intn(24)))
				t.Writes = append(t.Writes, types.Key(rng.Intn(24)))
			} else {
				t.Reads = append(t.Reads, types.Key(i*16+j))
				t.Writes = append(t.Writes, types.Key(i*16+8+j))
			}
		}
	}
	return txns
}

// BenchmarkBuildPlan times the planning pass (the benchmark's
// sched.plan_us_per_batch row measures the same function on replayed
// batches).
func BenchmarkBuildPlan(b *testing.B) {
	for _, n := range []int{100, 1000} {
		for _, hc := range []bool{false, true} {
			conflict := "low"
			if hc {
				conflict = "high"
			}
			txns := benchTxns(n, hc)
			b.Run(fmt.Sprintf("n=%d/conflict=%s", n, conflict), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BuildPlan(txns, 0, 1)
				}
			})
		}
	}
}
