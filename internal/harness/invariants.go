package harness

import (
	"ringbft/internal/evidence"
	"ringbft/internal/ledger"
	"ringbft/internal/pbft"
	"ringbft/internal/store"
	"ringbft/internal/types"
)

// BlockRecord is one committed block's identity: its sequence number, the
// digest of the batch it commits, and the block's chaining hash. Two correct
// replicas of a shard must never disagree on the digest at a sequence
// number, and matching hashes imply matching committed prefixes.
type BlockRecord struct {
	Seq    types.SeqNum
	Digest types.Digest
	Hash   types.Digest
}

// ReplicaState is one replica's externally observable commit state, captured
// after its event loop has stopped. The chaos checkers compare these across
// replicas: safety violations (forks, divergent execution) are visible here
// no matter which fault schedule produced them.
type ReplicaState struct {
	ID types.NodeID
	// Base is the anchor the retained chain rests on: genesis, a pruned
	// boundary block, or a state-transfer boundary. The last kind is
	// synthetic (its Digest is the certified checkpoint digest, not a batch
	// digest), so Base is diagnostic only and never digest-compared.
	Base BlockRecord
	// Blocks is the retained chain above the base, in append order; every
	// entry is a really committed batch, comparable across replicas.
	Blocks []BlockRecord
	// Height is the chain height including pruned blocks.
	Height int
	// ChainOK records whether the chain's hash links and Merkle roots
	// verified at capture time.
	ChainOK bool
	// StateDigest is the snapshot-consistent digest of the replica's store.
	StateDigest types.Digest
	// ExecutedThrough is the replica's executed-prefix watermark: every
	// sequence at or below it has executed; retained blocks above it are
	// the (possibly out-of-order) executed suffix. Together they identify
	// the exact executed set, which is what determines the state.
	ExecutedThrough types.SeqNum
	// Stable is the sequence of the newest checkpoint the replica saw
	// stabilize: nf replicas of its shard signed the same digest there.
	Stable types.SeqNum
	// CrossOrder is the sequence of cross-shard batch digests in chain
	// order (the Theorem 6.2/6.3 agreement surface).
	CrossOrder []types.Digest
	// Executed maps executed batch digests to a hash of their results.
	Executed map[types.Digest]uint64
	// Evidence is the replica's misbehavior evidence log at capture time.
	// The accountability checker asserts every record accuses an actually
	// faulty node and every Byzantine fault left a record somewhere.
	Evidence []evidence.Record
}

// The accessors a node must expose to be capturable. All three sharded
// protocols implement them; AHL committee members (no ledger) do not.
type chainProvider interface{ Chain() *ledger.Chain }
type storeProvider interface{ Store() *store.KV }
type executedProvider interface {
	ExecutedResults() map[types.Digest]uint64
}
type watermarkProvider interface{ ExecutedThrough() types.SeqNum }
type engineProvider interface{ Engine() *pbft.Engine }
type evidenceProvider interface{ Evidence() *evidence.Log }

// CaptureReplica snapshots one node's commit state for invariant checking.
// ok is false for nodes that expose no ledger (e.g. the AHL reference
// committee). Call only after the node's event loop has stopped.
func CaptureReplica(id types.NodeID, n any) (ReplicaState, bool) {
	cp, ok := n.(chainProvider)
	if !ok {
		return ReplicaState{}, false
	}
	ch := cp.Chain()
	st := ReplicaState{
		ID:         id,
		Height:     ch.Height(),
		ChainOK:    ch.Verify() == nil,
		CrossOrder: ch.CrossOrder(),
	}
	for i, b := range ch.Blocks() {
		rec := BlockRecord{Seq: b.Seq, Digest: b.Digest, Hash: b.Hash()}
		if i == 0 {
			st.Base = rec
			continue
		}
		st.Blocks = append(st.Blocks, rec)
	}
	if sp, ok := n.(storeProvider); ok {
		st.StateDigest = sp.Store().Digest()
	}
	if ep, ok := n.(executedProvider); ok {
		st.Executed = ep.ExecutedResults()
	}
	if wp, ok := n.(watermarkProvider); ok {
		st.ExecutedThrough = wp.ExecutedThrough()
	}
	if pp, ok := n.(engineProvider); ok {
		st.Stable = pp.Engine().StableSeq()
	}
	if vp, ok := n.(evidenceProvider); ok {
		st.Evidence = vp.Evidence().Records()
	}
	return st, true
}
