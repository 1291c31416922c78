// Package ledger implements the per-shard partial blockchain of Section 7:
// an immutable append-only hash chain of blocks, each committing to a batch
// of transactions via a Merkle root, starting from an agreed-upon genesis
// block. In a sharded system the complete state is the union of the shards'
// ledgers (Eq. 1); a block holding a cross-shard batch is appended to the
// ledger of every involved shard.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// Block is 𝔅_k = {k, Δ, p_S, H(𝔅_{k-1})} (Eq. 3) extended with the Merkle
// root of the batch's transactions so a block can be verified without
// re-serializing every transaction.
type Block struct {
	Seq        types.SeqNum
	Digest     types.Digest // Δ: digest of the ordered batch
	Primary    types.NodeID // proposer p_S of the batch
	PrevHash   types.Digest // H(𝔅_{k-1})
	MerkleRoot types.Digest // Merkle root over batch transactions
	TxnCount   int
	Batch      *types.Batch // full transactional information (Section 7)
}

// Hash returns H(𝔅): the chaining hash of the block header.
func (b *Block) Hash() types.Digest {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(b.Seq))
	h.Write(buf[:])
	h.Write(b.Digest[:])
	h.Write(b.PrevHash[:])
	h.Write(b.MerkleRoot[:])
	binary.BigEndian.PutUint64(buf[:], uint64(b.TxnCount))
	h.Write(buf[:])
	var d types.Digest
	copy(d[:], h.Sum(nil))
	return d
}

// ErrBrokenChain is returned when appending a block whose PrevHash does not
// match the head, or when Verify finds an inconsistent link.
var ErrBrokenChain = errors.New("ledger: hash chain broken")

// Chain is one shard's ledger 𝔏_S. Safe for concurrent use.
//
// A chain checkpointed by the durability subsystem is pruned: blocks below
// the stable checkpoint are dropped from memory (they live in snapshots on
// disk) and blocks[0] becomes the pruned boundary block — a header-only
// "base" whose hash anchors the retained suffix, playing the role genesis
// plays for an unpruned chain. base is the absolute index of blocks[0].
type Chain struct {
	mu     sync.RWMutex
	shard  types.ShardID
	blocks []*Block
	base   int
}

// NewChain creates a ledger for shard s, initialized with the genesis block
// every replica agrees on (Section 7).
func NewChain(s types.ShardID) *Chain {
	genesis := &Block{Seq: 0, Digest: genesisDigest(s)}
	return &Chain{shard: s, blocks: []*Block{genesis}}
}

func genesisDigest(s types.ShardID) types.Digest {
	h := sha256.Sum256([]byte(fmt.Sprintf("ringbft-genesis-shard-%d", s)))
	return types.Digest(h)
}

// Shard returns the shard whose partition this ledger records.
func (c *Chain) Shard() types.ShardID { return c.shard }

// Append creates the next block from an ordered batch and appends it.
func (c *Chain) Append(seq types.SeqNum, primary types.NodeID, batch *types.Batch) *Block {
	return c.AppendDigest(seq, primary, batch.Digest(), batch)
}

// AppendDigest is Append for a batch whose digest d its replica already
// derived. Verify re-derives every block's digest, so a wrong d cannot go
// unnoticed.
func (c *Chain) AppendDigest(seq types.SeqNum, primary types.NodeID, d types.Digest, batch *types.Batch) *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.blocks[len(c.blocks)-1]
	b := &Block{
		Seq:        seq,
		Digest:     d,
		Primary:    primary,
		PrevHash:   prev.Hash(),
		MerkleRoot: crypto.BatchMerkleRoot(batch),
		TxnCount:   len(batch.Txns),
		Batch:      batch,
	}
	c.blocks = append(c.blocks, b)
	return b
}

// Height returns the number of blocks excluding genesis, counting pruned
// blocks: pruning frees memory without rewriting history's length.
func (c *Chain) Height() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base + len(c.blocks) - 1
}

// Head returns the latest block.
func (c *Chain) Head() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// Block returns the block at absolute index i (0 = genesis), or nil when
// out of range or pruned from memory.
func (c *Chain) Block(i int) *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i -= c.base
	if i < 0 || i >= len(c.blocks) {
		return nil
	}
	return c.blocks[i]
}

// Blocks returns a snapshot of the retained blocks, base (genesis for an
// unpruned chain) first.
func (c *Chain) Blocks() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// Base returns the block the retained suffix rests on and its absolute
// index: genesis at 0 for an unpruned chain, otherwise the pruned boundary.
func (c *Chain) Base() (*Block, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[0], c.base
}

// Prune drops retained blocks (after the base) whose sequence number is
// below belowSeq, freeing the batches the durability subsystem has already
// checkpointed to disk. The newest dropped block becomes the new base: its
// header-only form (Batch nil) keeps the hash chain anchored, so Verify
// still validates every retained link. Pruning stops at the first retained
// block with Seq >= belowSeq — cross-shard execution may append blocks
// slightly out of sequence order, and a conservative stop keeps every
// possibly-needed block. Returns the number of blocks dropped.
func (c *Chain) Prune(belowSeq types.SeqNum) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cut := 0
	for cut+1 < len(c.blocks) && c.blocks[cut+1].Seq < belowSeq {
		cut++
	}
	if cut == 0 {
		return 0
	}
	newBase := *c.blocks[cut] // copy so the retained header drops its batch
	newBase.Batch = nil
	retained := make([]*Block, 0, len(c.blocks)-cut)
	retained = append(retained, &newBase)
	retained = append(retained, c.blocks[cut+1:]...)
	c.blocks = retained
	c.base += cut
	return cut
}

// Rebuild reconstructs a chain verbatim from recovered blocks: base is the
// boundary block a snapshot recorded (header fields only; Batch may be
// nil), baseIndex its absolute index, and blocks the retained suffix in
// chain order. Used by crash recovery; the caller should Verify afterwards.
func Rebuild(s types.ShardID, base *Block, baseIndex int, blocks []*Block) *Chain {
	all := make([]*Block, 0, len(blocks)+1)
	all = append(all, base)
	all = append(all, blocks...)
	return &Chain{shard: s, blocks: all, base: baseIndex}
}

// Verify walks the chain and checks every hash link and Merkle root,
// returning ErrBrokenChain (wrapped with position) on the first violation.
// This is the immutability check blockchains exist to provide.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 1; i < len(c.blocks); i++ {
		b := c.blocks[i]
		if b.PrevHash != c.blocks[i-1].Hash() {
			return fmt.Errorf("block %d (seq %d): %w", i, b.Seq, ErrBrokenChain)
		}
		if b.Batch != nil {
			if b.Digest != b.Batch.Digest() {
				return fmt.Errorf("block %d: batch digest mismatch: %w", i, ErrBrokenChain)
			}
			if b.MerkleRoot != crypto.BatchMerkleRoot(b.Batch) {
				return fmt.Errorf("block %d: merkle root mismatch: %w", i, ErrBrokenChain)
			}
		}
	}
	return nil
}

// CrossOrder returns the digests of cross-shard blocks in chain order.
// Theorem 6.2/6.3 require that two ledgers of shards sharing conflicting
// cross-shard batches order those blocks identically; tests intersect the
// CrossOrder of two chains to check it.
func (c *Chain) CrossOrder() []types.Digest {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.Digest
	for _, b := range c.blocks[1:] {
		if b.Batch != nil && b.Batch.IsCrossShard() {
			out = append(out, b.Digest)
		}
	}
	return out
}
