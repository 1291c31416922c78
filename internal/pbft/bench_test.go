package pbft

import (
	"testing"

	"ringbft/internal/types"
)

// BenchmarkConsensusRound measures one full PBFT three-phase decision for a
// 100-transaction batch across 4 replicas on the synchronous test bus —
// pure protocol + crypto cost, no network latency.
func BenchmarkConsensusRound(b *testing.B) {
	h := newHarness(&testing.T{}, 4)
	batch := &types.Batch{Involved: []types.ShardID{0}}
	for i := 0; i < 100; i++ {
		batch.Txns = append(batch.Txns, types.Txn{
			ID:     types.TxnID{Client: 1, Seq: uint64(i)},
			Writes: []types.Key{types.Key(i)},
		})
	}
	trackers := make([]*CheckpointTracker, 4)
	for i := range trackers {
		trackers[i] = NewCheckpointTracker(64)
		i := i
		h.engines[i].cb.Committed = func(seq types.SeqNum, bb *types.Batch, _ []types.Signed) {
			trackers[i].Committed(h.engines[i], seq, bb)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := *batch
		bb.Txns = append([]types.Txn(nil), batch.Txns...)
		bb.Txns[0].Delta = types.Value(i) // unique digest per round
		if _, err := h.engines[0].Propose(&bb); err != nil {
			b.Fatal(err)
		}
		h.pump()
	}
}

func BenchmarkVerifyCommitCert(b *testing.B) {
	h := newHarness(&testing.T{}, 4)
	var cert []types.Signed
	var digest types.Digest
	h.engines[1].cb.Committed = func(_ types.SeqNum, bb *types.Batch, c []types.Signed) {
		cert, digest = c, bb.Digest()
	}
	if _, err := h.engines[0].Propose(crossBatchOf(1)); err != nil {
		b.Fatal(err)
	}
	h.pump()
	if cert == nil {
		b.Fatal("no cert")
	}
	auth := h.engines[2].verifier
	auth.SetMemoSize(0) // measure real verification, not memo hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyCert(auth, 0, digest, cert, 3); err != nil {
			b.Fatal(err)
		}
	}
}
