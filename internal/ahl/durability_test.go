package ahl

import (
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// newDurableReplica builds one AHL shard replica backed by fs, recovering
// whatever is already there.
func newDurableReplica(t *testing.T, fs *wal.MemFS) *Replica {
	t.Helper()
	cfg := types.DefaultConfig(1, 4)
	cfg.CheckpointInterval = 4
	self := types.ReplicaNode(0, 0)
	peers := make([]types.NodeID, 4)
	kg := crypto.NewKeygen(5)
	for i := range peers {
		peers[i] = types.ReplicaNode(0, i)
		kg.Register(peers[i])
	}
	ring, err := kg.Ring(self)
	if err != nil {
		t.Fatal(err)
	}
	m, rec, err := wal.OpenManager(wal.ManagerOptions{FS: fs, Dir: "ahl-r0"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(ReplicaOptions{
		Config: cfg, Shard: 0, Self: self, Peers: peers,
		Auth: ring, Send: func(types.NodeID, *types.Message) {},
		Durability: m, Recovered: rec,
	})
	r.Preload(64)
	return r
}

// TestCrashRestartRecoversExecution: an AHL replica killed after executing
// a run of batches rebuilds the identical store, ledger, and execution
// watermark from its WAL + snapshot, and does not re-execute recovered
// batches when their commits are replayed.
func TestCrashRestartRecoversExecution(t *testing.T) {
	fs := wal.NewMemFS()
	r := newDurableReplica(t, fs)
	batches := make([]*types.Batch, 0, 10)
	for i := 0; i < 10; i++ {
		b := &types.Batch{
			Txns: []types.Txn{{
				ID:     types.TxnID{Client: types.ClientID(i + 1), Seq: 1},
				Reads:  []types.Key{types.Key(i % 4)},
				Writes: []types.Key{types.Key(i % 4)},
				Delta:  7,
			}},
			Involved: []types.ShardID{0},
		}
		batches = append(batches, b)
		r.onCommitted(types.SeqNum(i+1), b, b.Digest(), nil)
	}
	wantDigest := r.Store().Digest()
	wantHeight := r.Chain().Height()
	if r.ExecNext != 10 {
		t.Fatalf("execNext = %d, want 10", r.ExecNext)
	}
	// Snapshots must have pruned the chain below the last boundary.
	if _, baseIdx := r.Chain().Base(); baseIdx == 0 {
		t.Fatal("chain never pruned despite snapshots")
	}

	// Crash (abandon without Close) and restart from the same filesystem.
	r2 := newDurableReplica(t, fs)
	if r2.Store().Digest() != wantDigest {
		t.Fatal("recovered store diverges")
	}
	if r2.Chain().Height() != wantHeight {
		t.Fatalf("recovered height %d, want %d", r2.Chain().Height(), wantHeight)
	}
	if err := r2.Chain().Verify(); err != nil {
		t.Fatalf("recovered chain does not verify: %v", err)
	}
	if r2.ExecNext != 10 {
		t.Fatalf("recovered execNext = %d, want 10", r2.ExecNext)
	}
	// Batches above the prune boundary keep their ordered/executed marks,
	// so replayed commits cannot re-execute them (older batches were
	// pruned with their checkpoint — their clients were answered long ago).
	_, baseIdx := r2.Chain().Base()
	for i, b := range batches {
		if i+1 <= baseIdx {
			continue
		}
		if _, ok := r2.Proposed[b.Digest()]; !ok {
			t.Fatalf("retained batch %d not marked proposed after recovery", i)
		}
		if _, ok := r2.Results[b.Digest()]; !ok {
			t.Fatalf("retained batch %d results lost in recovery", i)
		}
	}
	// Execution continues past the recovered watermark.
	b := &types.Batch{
		Txns:     []types.Txn{{ID: types.TxnID{Client: 99, Seq: 1}, Reads: []types.Key{1}, Writes: []types.Key{1}, Delta: 3}},
		Involved: []types.ShardID{0},
	}
	r2.onCommitted(11, b, b.Digest(), nil)
	if r2.ExecNext != 11 {
		t.Fatalf("post-recovery execution stalled: execNext = %d", r2.ExecNext)
	}
}
