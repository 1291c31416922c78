package pbft

import (
	"crypto/sha256"
	"encoding/binary"

	"ringbft/internal/types"
)

// CheckpointTracker drives periodic checkpoints for a host that consumes
// engine commits (possibly out of order): it tracks the contiguous committed
// prefix, folds batch digests into a rolling prefix digest — deterministic
// across replicas because the log is agreed — and calls MakeCheckpoint every
// interval sequences so the engine's watermark window keeps sliding and the
// log is garbage-collected. Every host embedding an Engine needs one (or an
// equivalent, like ringbft's lock-queue-integrated variant); without
// checkpoints a long-running primary exhausts its proposal window and
// throughput collapses to zero.
type CheckpointTracker struct {
	interval types.SeqNum
	next     types.SeqNum // highest contiguous committed sequence
	pending  map[types.SeqNum]types.Digest
	prefix   types.Digest
	last     types.SeqNum
}

// NewCheckpointTracker creates a tracker checkpointing every interval
// sequences (0 defaults to 64).
func NewCheckpointTracker(interval types.SeqNum) *CheckpointTracker {
	if interval == 0 {
		interval = 64
	}
	return &CheckpointTracker{
		interval: interval,
		pending:  make(map[types.SeqNum]types.Digest),
	}
}

// Committed records the commit of the batch with digest d at seq and emits
// a checkpoint through e when the contiguous prefix crosses the next
// interval boundary.
func (t *CheckpointTracker) Committed(e *Engine, seq types.SeqNum, d types.Digest) {
	t.pending[seq] = d
	for {
		d, ok := t.pending[t.next+1]
		if !ok {
			break
		}
		delete(t.pending, t.next+1)
		t.next++
		t.prefix = FoldStep(t.prefix, t.next, d)
		// Checkpoints must land on exact interval boundaries: replicas
		// drain their contiguous prefixes in different-sized bursts, and
		// only votes for the *same* sequence number can form a quorum.
		if t.next == t.last+t.interval {
			t.last = t.next
			e.MakeCheckpoint(t.next, t.prefix)
		}
	}
}

// FoldStep extends a rolling commit-prefix digest with the batch digest
// committed at seq. Exposed so hosts can re-derive a peer's certified prefix
// from shipped blocks during catch-up: starting from their own contiguous
// fold, one FoldStep per sequence (batch digest for shipped blocks, the
// empty-batch digest for view-change no-op gaps) must land exactly on the
// digest nf replicas signed — anything a Byzantine responder substituted
// breaks the chain.
func FoldStep(prefix types.Digest, seq types.SeqNum, d types.Digest) types.Digest {
	var buf [72]byte
	copy(buf[:32], prefix[:])
	copy(buf[32:64], d[:])
	binary.BigEndian.PutUint64(buf[64:], uint64(seq))
	return sha256.Sum256(buf[:])
}

// Advance repositions the tracker at a transferred checkpoint: the host
// validated (via FoldStep against an nf-signed certificate) that the shard's
// fold at seq is prefix, and installed the corresponding blocks. Pending
// digests the transfer covered are dropped; the emission boundary moves so
// the next checkpoint fires at the next interval crossing, not for the
// boundaries the transfer skipped over.
func (t *CheckpointTracker) Advance(seq types.SeqNum, prefix types.Digest) {
	if seq <= t.next {
		return
	}
	t.next = seq
	t.prefix = prefix
	for s := range t.pending {
		if s <= seq {
			delete(t.pending, s)
		}
	}
	if boundary := seq - seq%t.interval; boundary > t.last {
		t.last = boundary
	}
}

// Prefix returns the current rolling prefix digest (for tests).
func (t *CheckpointTracker) Prefix() types.Digest { return t.prefix }

// Next returns the contiguous committed watermark (for tests).
func (t *CheckpointTracker) Next() types.SeqNum { return t.next }
