package pbft

import (
	"crypto/sha256"
	"encoding/binary"

	"ringbft/internal/types"
)

// CheckpointTracker is the one per-commit checkpoint schedule: it tracks
// the contiguous committed prefix of a host that consumes engine commits
// (possibly out of order), folds batch digests into a rolling prefix
// digest — deterministic across replicas because the log is agreed — and
// calls emit every interval sequences, on exact boundaries. A host passes
// the engine's MakeCheckpoint, or defers it (RingBFT emits once execution
// covers the checkpoint), so the engine's watermark window keeps sliding
// and the log is garbage-collected. Every host embedding an Engine needs
// one: without checkpoints a long-running primary exhausts its proposal
// window and throughput collapses to zero.
type CheckpointTracker struct {
	interval types.SeqNum
	emit     func(seq types.SeqNum, prefix types.Digest)
	next     types.SeqNum // highest contiguous committed sequence
	pending  map[types.SeqNum]types.Digest
	prefix   types.Digest
	last     types.SeqNum
}

// NewCheckpointTracker creates a tracker calling emit every interval
// sequences (0 defaults to 64).
func NewCheckpointTracker(interval types.SeqNum, emit func(seq types.SeqNum, prefix types.Digest)) *CheckpointTracker {
	if interval == 0 {
		interval = 64
	}
	return &CheckpointTracker{
		interval: interval,
		emit:     emit,
		pending:  make(map[types.SeqNum]types.Digest),
	}
}

// Committed records the commit of the batch with digest d at seq and emits
// a checkpoint when the contiguous prefix crosses the next interval
// boundary.
func (t *CheckpointTracker) Committed(seq types.SeqNum, d types.Digest) {
	t.pending[seq] = d
	for {
		d, ok := t.pending[t.next+1]
		if !ok {
			break
		}
		delete(t.pending, t.next+1)
		t.next++
		t.prefix = foldStep(t.prefix, t.next, d)
		// Checkpoints must land on exact interval boundaries: replicas
		// drain their contiguous prefixes in different-sized bursts, and
		// only votes for the *same* sequence number can form a quorum.
		if t.next == t.last+t.interval {
			t.last = t.next
			t.emit(t.next, t.prefix)
		}
	}
}

// foldStep extends a rolling commit-prefix digest with the batch digest
// committed at seq.
func foldStep(prefix types.Digest, seq types.SeqNum, d types.Digest) types.Digest {
	var buf [72]byte
	copy(buf[:32], prefix[:])
	copy(buf[32:64], d[:])
	binary.BigEndian.PutUint64(buf[64:], uint64(seq))
	return sha256.Sum256(buf[:])
}

// Advance repositions the tracker at a prefix the host did not fold here:
// a transferred checkpoint whose fold at seq the host validated against an
// nf-signed certificate, or one its own durable log recorded before a
// restart. Pending digests the jump covered are dropped; the emission
// boundary moves so the next checkpoint fires at the next interval
// crossing, not for the boundaries the jump skipped over.
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

// Prefix returns the current rolling prefix digest.
func (t *CheckpointTracker) Prefix() types.Digest { return t.prefix }

// Next returns the contiguous committed watermark.
func (t *CheckpointTracker) Next() types.SeqNum { return t.next }

// Last returns the newest checkpoint boundary the prefix has crossed.
func (t *CheckpointTracker) Last() types.SeqNum { return t.last }
