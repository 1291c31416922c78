package host

import (
	"reflect"
	"slices"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/ledger"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// newDurableSequential opens replica (0, 0) of a one-shard deployment on
// fs, recovering whatever fs holds, with a snapshot cut every 4 executed
// sequences.
func newDurableSequential(t *testing.T, fs *wal.MemFS) *Sequential {
	t.Helper()
	cfg := types.DefaultConfig(1, 4)
	cfg.CheckpointInterval = 4
	peers := make([]types.NodeID, 4)
	kg := crypto.NewKeygen(7)
	for i := range peers {
		peers[i] = types.ReplicaNode(0, i)
		kg.Register(peers[i])
	}
	ring, err := kg.Ring(peers[0])
	if err != nil {
		t.Fatal(err)
	}
	dur, rec, err := wal.OpenManager(wal.ManagerOptions{FS: fs, Dir: "r0"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSequential(Options{
		Config: cfg, Shard: 0, Self: peers[0], Peers: peers, Auth: ring,
		Send:       func(types.NodeID, *types.Message) {},
		Durability: dur, Recovered: rec,
	}, func(*types.Batch, types.Digest) bool { return true })
	s.Preload(16)
	return s
}

// chainShape lists the digests of a chain's base and retained blocks.
func chainShape(c *ledger.Chain) []types.Digest {
	base, _ := c.Base()
	out := []types.Digest{base.Digest}
	for _, b := range c.Blocks()[1:] {
		out = append(out, b.Digest)
	}
	return out
}

func TestSequentialCutAndRecover(t *testing.T) {
	fs := wal.NewMemFS()
	s := newDurableSequential(t, fs)
	var batches []*types.Batch
	for i := uint64(1); i <= 10; i++ {
		b := batch(i)
		batches = append(batches, b)
		s.Commit(types.SeqNum(i), b, b.Digest())
		s.DrainExec()
	}
	if s.ExecNext != 10 || s.LastSnap != 8 {
		t.Fatalf("ExecNext, LastSnap = %d, %d; want 10, 8", s.ExecNext, s.LastSnap)
	}

	// The cut at 8 dropped every block and cached result below it.
	if _, baseIdx := s.Ledger.Base(); baseIdx != 7 {
		t.Fatalf("chain base index %d, want 7", baseIdx)
	}
	var seqs []types.SeqNum
	for _, b := range s.Ledger.Blocks()[1:] {
		seqs = append(seqs, b.Seq)
	}
	if !slices.Equal(seqs, []types.SeqNum{8, 9, 10}) {
		t.Fatalf("retained blocks %v, want [8 9 10]", seqs)
	}
	for i, b := range batches {
		_, cached := s.Results[b.Digest()]
		if want := i+1 >= 8; cached != want {
			t.Fatalf("batch at seq %d: results cached = %v, want %v", i+1, cached, want)
		}
	}

	// Crash (no Close) and restart from the same filesystem: the snapshot
	// at 8 plus the tail records of 9 and 10.
	r := newDurableSequential(t, fs)
	if !reflect.DeepEqual(r.KV.Pairs(), s.KV.Pairs()) {
		t.Fatal("recovered KV pairs differ")
	}
	if !slices.Equal(chainShape(r.Ledger), chainShape(s.Ledger)) {
		t.Fatal("recovered chain differs")
	}
	if err := r.Ledger.Verify(); err != nil {
		t.Fatalf("recovered chain does not verify: %v", err)
	}
	if !reflect.DeepEqual(r.Results, s.Results) {
		t.Fatalf("recovered results %v, want %v", r.Results, s.Results)
	}
	if r.ExecNext != s.ExecNext || r.LastSnap != s.LastSnap {
		t.Fatalf("recovered ExecNext, LastSnap = %d, %d; want %d, %d",
			r.ExecNext, r.LastSnap, s.ExecNext, s.LastSnap)
	}
}

// TestRecoverSplitsCoalescedBlock: a block record whose batch carries
// request boundaries — Reqs {1, 1}, as builds that merged queued client
// requests into one proposal logged it — is split back by Recover, so a
// retransmission of either original request is answered from Results
// under its own digest, finds that digest latched in Proposed, and is not
// executed again.
func TestRecoverSplitsCoalescedBlock(t *testing.T) {
	reqs := []*types.Batch{
		{Txns: []types.Txn{{ID: types.TxnID{Client: 3, Seq: 11}, Reads: []types.Key{5}, Writes: []types.Key{5}, Delta: 7}}, Involved: []types.ShardID{0}},
		{Txns: []types.Txn{{ID: types.TxnID{Client: 4, Seq: 12}, Reads: []types.Key{8}, Writes: []types.Key{8, 2}, Delta: 1}}, Involved: []types.ShardID{0}},
	}
	merged := &types.Batch{
		Txns:     slices.Concat(reqs[0].Txns, reqs[1].Txns),
		Involved: []types.ShardID{0},
		Reqs:     []uint32{1, 1},
	}
	results := []types.Value{7, 1}
	fs := wal.NewMemFS()
	dur, _, err := wal.OpenManager(wal.ManagerOptions{FS: fs, Dir: "r0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.LogBlock(1, types.ReplicaNode(0, 0), merged, results); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	s := newDurableSequential(t, fs)
	if s.ExecNext != 1 || s.Ledger.Height() != 1 {
		t.Fatalf("recovered ExecNext, height = %d, %d; want 1, 1", s.ExecNext, s.Ledger.Height())
	}
	pairs := s.KV.Pairs()
	for i, b := range reqs {
		d := b.Digest()
		if got := s.Results[d]; !slices.Equal(got, results[i:i+1]) {
			t.Fatalf("request %d: cached results %v, want %v", i, got, results[i:i+1])
		}
		if _, latched := s.Proposed[d]; !latched {
			t.Fatalf("request %d: digest not latched in Proposed", i)
		}
		s.Enqueue(b, d) // the retransmission reaching the primary's book
		if s.PBFT.InFlight() != 0 || len(s.Queue) != 0 || len(s.Awaiting) != 0 {
			t.Fatalf("request %d: retransmission re-entered the book", i)
		}
	}
	if s.ExecNext != 1 || s.Ledger.Height() != 1 || !reflect.DeepEqual(s.KV.Pairs(), pairs) {
		t.Fatal("a retransmission executed again")
	}
}
