package ringbft

import (
	"cmp"
	"encoding/hex"
	"slices"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/store"
	"ringbft/internal/types"
)

// The checkpoint fixture is one replica of shard 1 of 3 holding the
// tcp_mixed partition (65,536 records), with two blocks at or below the
// checkpoint cpFixtureSeq and cpFixtureAbove executed blocks above it, one
// pair of them appended out of sequence order. Its transactions read and
// write keys of all three shards, and some write keys the table does not
// hold yet.
const (
	cpFixtureRecords = 65536
	cpFixtureSeq     = types.SeqNum(128)
	cpFixtureAbove   = 64
	cpFixtureTxns    = 50
)

// cpFixtureRand is a 64-bit LCG, so the fixture depends on no library
// generator's output.
type cpFixtureRand uint64

func (g *cpFixtureRand) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 11)
}

// checkpointFixture builds the fixture and returns the replica together
// with its table as it stood when execution reached cpFixtureSeq.
func checkpointFixture(tb testing.TB) (*Replica, []store.Pair) {
	tb.Helper()
	const z, shard = 3, types.ShardID(1)
	peers := make([]types.NodeID, 4)
	for i := range peers {
		peers[i] = types.ReplicaNode(shard, i)
	}
	r := New(Options{
		Config: types.DefaultConfig(z, len(peers)), Shard: shard, Self: peers[0], Peers: peers,
		Auth: crypto.NopAuth{}, Send: func(types.NodeID, *types.Message) {},
	})
	r.Preload(cpFixtureRecords)
	rng := cpFixtureRand(27)
	key := func() types.Key {
		if rng.next()%16 == 0 { // beyond the preloaded partition
			return types.Key(rng.next() % (4 * z * cpFixtureRecords))
		}
		return types.Key(rng.next() % (z * cpFixtureRecords))
	}
	seqs := []types.SeqNum{cpFixtureSeq - 1, cpFixtureSeq}
	for i := 1; i <= cpFixtureAbove; i++ {
		seqs = append(seqs, cpFixtureSeq+types.SeqNum(i))
	}
	seqs[3], seqs[4] = seqs[4], seqs[3] // S+2 executes before S+1
	var atCp []store.Pair
	for _, seq := range seqs {
		if seq > cpFixtureSeq && atCp == nil {
			atCp = r.KV.Pairs()
		}
		b := &types.Batch{Involved: []types.ShardID{0, 1, 2}}
		for j := 0; j < cpFixtureTxns; j++ {
			b.Txns = append(b.Txns, types.Txn{
				ID:     types.TxnID{Client: 1, Seq: uint64(seq)*cpFixtureTxns + uint64(j)},
				Reads:  []types.Key{key(), key()},
				Writes: []types.Key{key(), key()},
				Delta:  types.Value(rng.next()),
			})
		}
		res := make([]types.Value, len(b.Txns))
		for j := range b.Txns {
			res[j] = r.KV.ExecuteTxnPartial(&b.Txns[j], shard, z)
		}
		r.Ledger.Append(seq, peers[0], b)
		r.Results[b.Digest()] = res
	}
	return r, atCp
}

// TestCheckpointDigestGolden pins the checkpoint digest format: the
// canonical state the fixture rewinds to, its state digest and the
// composite digest Checkpoint messages carry. The hex was computed before
// the store was kept in key order; any change to what a checkpoint
// certifies shows here first.
func TestCheckpointDigestGolden(t *testing.T) {
	const (
		wantState     = "dac30f4f8b04f3000491b2a60adcc78d4a048aa95b66312be2ac8c91cfb84929"
		wantComposite = "6d000ec54b4e55d2bb8ee5e9ddb3bcdf3d0af8b0b7515b9fc0f76e0aeba7398f"
	)
	r, atCp := checkpointFixture(t)
	pairs := r.canonicalPairsAt(cpFixtureSeq)
	// Rewinding restores the table at S exactly; keys first written above
	// S stay, at zero.
	var rest []store.Pair
	for _, p := range pairs {
		if _, ok := slices.BinarySearchFunc(atCp, p.K, func(q store.Pair, k types.Key) int {
			return cmp.Compare(q.K, k)
		}); !ok {
			if p.V != 0 {
				t.Fatalf("key %d first written above S rewinds to %d, want 0", p.K, p.V)
			}
			continue
		}
		rest = append(rest, p)
	}
	if !slices.Equal(rest, atCp) {
		t.Fatalf("canonical pairs differ from the table at S (%d vs %d records)", len(rest), len(atCp))
	}
	if len(pairs) == len(atCp) {
		t.Fatal("fixture inserts no key above S")
	}
	state := stateDigestOf(pairs)
	composite := compositeCpDigest(sha256Sum([]byte("prefix")), state)
	if got := hex.EncodeToString(state[:]); got != wantState {
		t.Errorf("state digest = %s, want %s", got, wantState)
	}
	if got := hex.EncodeToString(composite[:]); got != wantComposite {
		t.Errorf("composite digest = %s, want %s", got, wantComposite)
	}
}
