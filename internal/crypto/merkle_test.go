package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ringbft/internal/types"
)

func katLeaves(n int) []types.Digest {
	out := make([]types.Digest, n)
	for i := range out {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		out[i] = sha256.Sum256(b[:])
	}
	return out
}

func katBatch(n int) *types.Batch {
	b := &types.Batch{Involved: []types.ShardID{0}}
	for i := range n {
		b.Txns = append(b.Txns, types.Txn{
			ID: types.TxnID{Client: 1, Seq: uint64(i)}, Reads: []types.Key{types.Key(i)},
			Writes: []types.Key{types.Key(i + 1)}, Delta: types.Value(i),
		})
	}
	return b
}

// TestMerkleKnownAnswers pins the roots of every ledger block ever appended
// across the stack-array bound (64 leaves) and odd-node promotion; the hex
// values were computed with the level-by-level implementation that built
// each level in a fresh slice and hashed every leaf through a one-transaction
// Batch copy.
func TestMerkleKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n           int
		root, batch string
	}{
		{1, "5672695e79d5c2898c61dffa926bd315e5000a77cf38303c0744fcc5a94f5c02", "9696b572ef78b026f3c37f7a3ef2bf326640aa94449634622e729c07f54436e9"},
		{2, "112d546d426b0f655fabc3e3481c1d626b6f08641fd692d03298caf014b83955", "3fb8e8b88936436312b3cff0c2b428de062c4b2b0cc6a893b89c48ddd28e034a"},
		{3, "a87598f3778ccb364e9f4c35ee58539cd049b564a5fb4f6342948cbd83658099", "b9922055270231ff021a87bca126a53fa54b0919c9b15841124032947b3bf0d2"},
		{64, "b85e5a211258d31ab433030d3e501cfccd93dd02dedce52a3c1f6ac4d50b6162", "5b7c8853f490976d828654ddc57c4c8a06d915dfab3b3a68a9a66be75b7b3bdc"},
		{65, "89bba3767a9b5d4c57d9fe8559553dd53e02a96407f55493cccbff68f9b747b3", "fb6cf2d9722577a36b531ae8109ce6685f8c6e926f8fc767ecc72d05f2320a5f"},
	} {
		leaves := katLeaves(c.n)
		r := MerkleRoot(leaves)
		if got := hex.EncodeToString(r[:]); got != c.root {
			t.Errorf("MerkleRoot(%d leaves) = %s, want %s", c.n, got, c.root)
		}
		if leaves[0] != katLeaves(1)[0] {
			t.Errorf("MerkleRoot(%d leaves) overwrote its input", c.n)
		}
		br := BatchMerkleRoot(katBatch(c.n))
		if got := hex.EncodeToString(br[:]); got != c.batch {
			t.Errorf("BatchMerkleRoot(%d txns) = %s, want %s", c.n, got, c.batch)
		}
	}
}

// TestTxnDigestIsOneTxnBatch: a Merkle leaf is the digest of the
// one-transaction batch with no involved set.
func TestTxnDigestIsOneTxnBatch(t *testing.T) {
	b := katBatch(3)
	b.Txns[2].Reads = nil
	for i := range b.Txns {
		one := types.Batch{Txns: []types.Txn{b.Txns[i]}}
		if TxnDigest(&b.Txns[i]) != one.Digest() {
			t.Fatalf("txn %d: leaf is not the one-transaction batch digest", i)
		}
	}
}

// TestMerkleAllocs: trees of up to 64 leaves reduce in a stack array.
func TestMerkleAllocs(t *testing.T) {
	for _, n := range []int{1, 10, 64} {
		leaves, b := katLeaves(n), katBatch(n)
		if a := testing.AllocsPerRun(50, func() { MerkleRoot(leaves) }); a != 0 {
			t.Errorf("MerkleRoot(%d leaves) allocates %v times, want 0", n, a)
		}
		if a := testing.AllocsPerRun(50, func() { BatchMerkleRoot(b) }); a != 0 {
			t.Errorf("BatchMerkleRoot(%d txns) allocates %v times, want 0", n, a)
		}
	}
}
