package crypto

import (
	"crypto/sha256"
	"encoding/binary"

	"ringbft/internal/types"
)

// merkleStackLeaves is how many leaves MerkleRoot and BatchMerkleRoot reduce
// in a stack array; a larger tree takes one heap level.
const merkleStackLeaves = 64

// MerkleRoot computes the Merkle root of a list of leaf digests by pair-wise
// hashing up to the root (Section 7; Merkle 1988). An odd node at any level
// is promoted by hashing it with itself, the common convention. The root of
// zero leaves is the zero digest; a single leaf hashes with itself so that a
// one-transaction block still commits to tree structure.
func MerkleRoot(leaves []types.Digest) types.Digest {
	if len(leaves) == 0 {
		return types.Digest{}
	}
	var stack [merkleStackLeaves]types.Digest
	level := stack[:0]
	if len(leaves) > merkleStackLeaves {
		level = make([]types.Digest, 0, len(leaves))
	}
	return reduce(append(level, leaves...))
}

// reduce hashes level up to its root in place: node i of the next level
// overwrites slot i, which both of its children have already been read from.
func reduce(level []types.Digest) types.Digest {
	var pair [2 * len(types.Digest{})]byte
	for n := len(level); ; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			r := min(i+1, n-1)
			copy(pair[:32], level[i][:])
			copy(pair[32:], level[r][:])
			level[i/2] = sha256.Sum256(pair[:])
		}
		if n <= 2 {
			return level[0]
		}
	}
}

// txnStackBytes is TxnDigest's stack buffer: enough for a transaction of
// 25 keys.
const txnStackBytes = 256

// TxnDigest computes the leaf digest of one transaction for Merkle trees:
// the digest of the one-transaction batch with no involved set, hashed
// from the same canonical encoding as types.Batch.Digest.
func TxnDigest(t *types.Txn) types.Digest {
	var buf [txnStackBytes]byte
	p := binary.BigEndian.AppendUint64(buf[:0], 1) // one transaction
	p = types.AppendTxn(p, t)
	p = binary.BigEndian.AppendUint64(p, 0) // empty involved set
	return sha256.Sum256(p)
}

// BatchMerkleRoot computes the Merkle root over the transactions of a batch.
func BatchMerkleRoot(b *types.Batch) types.Digest {
	if len(b.Txns) == 0 {
		return types.Digest{}
	}
	var stack [merkleStackLeaves]types.Digest
	leaves := stack[:0]
	if len(b.Txns) > merkleStackLeaves {
		leaves = make([]types.Digest, 0, len(b.Txns))
	}
	for i := range b.Txns {
		leaves = append(leaves, TxnDigest(&b.Txns[i]))
	}
	return reduce(leaves)
}
