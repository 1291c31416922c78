package sharper

import (
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

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
	m, rec, err := wal.OpenManager(wal.ManagerOptions{FS: fs, Dir: "sharper-r0"})
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{
		Config: cfg, Shard: 0, Self: self, Peers: peers,
		Auth: ring, Send: func(types.NodeID, *types.Message) {},
		Durability: m, Recovered: rec,
	})
	r.Preload(64)
	return r
}

// TestCrashRestartRecoversExecution mirrors the AHL variant: a Sharper
// replica killed mid-run resumes with identical store, ledger, and
// execution watermark, and keeps executing past it.
func TestCrashRestartRecoversExecution(t *testing.T) {
	fs := wal.NewMemFS()
	r := newDurableReplica(t, fs)
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
		r.onCommitted(types.SeqNum(i+1), b, nil)
	}
	wantDigest := r.Store().Digest()
	wantHeight := r.Chain().Height()

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
	b := &types.Batch{
		Txns:     []types.Txn{{ID: types.TxnID{Client: 99, Seq: 1}, Reads: []types.Key{1}, Writes: []types.Key{1}, Delta: 3}},
		Involved: []types.ShardID{0},
	}
	r2.onCommitted(11, b, nil)
	if r2.ExecNext != 11 {
		t.Fatalf("post-recovery execution stalled: execNext = %d", r2.ExecNext)
	}
}
