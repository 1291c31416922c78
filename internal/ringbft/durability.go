package ringbft

import (
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// This file holds what the ring layer adds to the host's durable replica
// (host.Replica's Record, Cut and Recover, internal/host/durable.go):
//
//   - every lock-order advance appends a progress record to the WAL, next
//     to the block record host.Record writes per executed block;
//   - a stable PBFT checkpoint is cut (host.Cut) once local execution
//     covers it, and the snapshot carries k_max, the executed watermark
//     and the prefix digest;
//   - a restarted replica advances its checkpoint tracker to the
//     newest recovered progress, folds the recovered blocks into the
//     executed watermark, and resumes consensus past them.
//
// Checkpoint digests are the host's one content (host/checkpoint.go):
// H(prefix || state at S), signed once the executed watermark covers S.

// markExecuted advances the contiguous executed-prefix watermark and emits
// any checkpoint whose sequence the watermark has now covered.
func (r *Replica) markExecuted(seq types.SeqNum) {
	if seq <= r.execSeq {
		return
	}
	r.execDone[seq] = struct{}{}
	for {
		if _, ok := r.execDone[r.execSeq+1]; !ok {
			break
		}
		delete(r.execDone, r.execSeq+1)
		r.execSeq++
	}
	r.EmitCheckpoints(r.execSeq)
}

// onStabilized is the engine's stable-checkpoint hook: nf replicas signed
// identical digests at seq. Snapshot-and-GC when our own state covers the
// checkpoint; request state transfer when the checkpoint proves the shard
// ran at least a full checkpoint interval ahead of us (a restarted replica
// with a gap, a replica kept in the dark, or a wiped rejoiner).
func (r *Replica) onStabilized(seq types.SeqNum, digest types.Digest) {
	r.settleBelow(seq)
	if interval := r.Cfg.CheckpointInterval; interval > 0 && seq >= r.kmax()+interval {
		if want, _, ok := r.Requested(); !ok || seq > want {
			r.RequestState(seq)
		}
		return
	}
	// Snapshot only once local execution covers the checkpoint: a cut
	// whose WAL is then garbage-collected must not be missing the batches
	// of committed-but-unexecuted cross-shard blocks below it (they exist
	// nowhere else on disk).
	if r.execSeq >= seq {
		r.Cut(seq, digest, r.snapMarks)
	}
}

// snapMarks fills in the watermarks a RingBFT snapshot carries beyond its
// cut: the lock-order and executed watermarks and the prefix digest.
func (r *Replica) snapMarks(s *wal.Snapshot) {
	s.KMax, s.ExecSeq = r.kmax(), r.execSeq
	s.PrefixDigest, s.LastCheckpoint = r.Tracker.Prefix(), r.Tracker.Last()
}

// logProgress durably records a k_max advance (see wal.ProgressRecord).
func (r *Replica) logProgress(batchDigest types.Digest) {
	if r.Dur == nil {
		return
	}
	r.DurOK(r.Dur.LogProgress(r.kmax(), r.Tracker.Prefix(), r.Tracker.Last(), batchDigest, r.PBFT.View()))
}

// applyRecovered folds a snapshot plus the WAL tail (host.Recover) into
// the ring layer's progress: the checkpoint tracker advances to the
// lock-order watermark and prefix digest of the newest progress record
// (its boundary follows from the watermark, so the recorded LastCheckpoint
// is not read back), and the executed watermark covers every recovered
// block (no checkpoint is pending yet, so markExecuted emits none). Called
// from Preload, after the base table is installed and before any message
// is handled.
func (r *Replica) applyRecovered(rec *wal.Recovered) {
	if snap := rec.Snap; snap != nil {
		r.execSeq = snap.ExecSeq
		r.Tracker.Advance(snap.KMax, snap.PrefixDigest)
	}
	r.Recover(rec, r.markExecuted, func(t *wal.Record) { r.Tracker.Advance(t.Seq, t.PrefixDigest) })
	r.PBFT.ResumeAt(r.LastSnap, r.kmax()+1)
	r.recovered = true
}
