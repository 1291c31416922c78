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
		trackers[i] = NewCheckpointTracker(64, h.engines[i].MakeCheckpoint)
		i := i
		h.engines[i].cb.Committed = func(seq types.SeqNum, _ *types.Batch, d types.Digest, _ *Cert) {
			trackers[i].Committed(seq, d)
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

// BenchmarkCommitAfterDecision is a replica's cost of a cross-shard Commit
// that lands after its entry committed — in the fault-free case the last
// peer's, at every replica for every batch — including the straggler reply
// it triggers.
func BenchmarkCommitAfterDecision(b *testing.B) {
	h := newHarness(&testing.T{}, 4)
	batch := crossBatchOf(1)
	if _, err := h.engines[0].Propose(batch); err != nil {
		b.Fatal(err)
	}
	h.pump()
	e := h.engines[1]
	ent := e.log[1]
	if !ent.committed {
		b.Fatal("replica 1 did not commit")
	}
	late := h.commitFrom(2, 1, 0, 1, batch.Digest(), true)
	h.drop = func(types.NodeID, types.NodeID, *types.Message) bool { return true }
	b.ReportAllocs()
	for b.Loop() {
		ent.helped = nil
		e.OnMessage(late)
	}
}

// BenchmarkCommitBeforeDecision is a replica's cost of a peer's cross-shard
// Commit for an entry it has prepared but not decided: the nf-1 peer
// Commits of every decision, at every replica. Each iteration forgets the
// vote again, so the entry stays one vote short of nf.
func BenchmarkCommitBeforeDecision(b *testing.B) {
	h := newHarness(&testing.T{}, 4)
	isolateCommits(h, 1)
	batch := crossBatchOf(1)
	if _, err := h.engines[0].Propose(batch); err != nil {
		b.Fatal(err)
	}
	h.pump()
	e := h.engines[1]
	ent := e.log[1]
	if !ent.prepared || ent.committed {
		b.Fatal("replica 1 is not prepared and undecided")
	}
	vote := h.commitFrom(2, 1, 0, 1, batch.Digest(), true)
	b.ReportAllocs()
	for b.Loop() {
		delete(ent.commits, vote.From)
		e.OnMessage(vote)
	}
}

func BenchmarkVerifyCommitCert(b *testing.B) {
	h := newHarness(&testing.T{}, 4)
	var cert []types.Signed
	var digest types.Digest
	h.engines[1].cb.Committed = func(_ types.SeqNum, _ *types.Batch, d types.Digest, c *Cert) {
		cert, digest = c.Unproven(), d
	}
	if _, err := h.engines[0].Propose(crossBatchOf(1)); err != nil {
		b.Fatal(err)
	}
	h.pump()
	if cert == nil {
		b.Fatal("no cert")
	}
	auth := h.engines[2].auth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyCert(auth, 0, digest, cert, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}
