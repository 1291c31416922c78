package ringbft

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"ringbft/internal/store"
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
//   - a restarted replica advances its checkpoint schedule (cps) to the
//     newest recovered progress, folds the recovered blocks into the
//     executed watermark, and resumes consensus past them.
//
// Checkpoint digests are composite — H(prefix || stateDigest) — where
// stateDigest is the SHA-256 of the *canonical state at the checkpoint*:
// the key-value table obtained by executing exactly the blocks with
// sequence <= S. Every honest replica agrees on that state even though
// their live stores interleave later writes differently, so the nf signed
// Checkpoint messages double as a certificate over the state itself — the
// foundation of peer state transfer (statetransfer.go). Because execution
// is additive (data[k] += combined), the canonical state is reconstructed
// from the live store by subtracting the writes of executed blocks beyond
// the checkpoint.

// cpPoint is a checkpoint cps scheduled at lock time (k_max crossing an
// interval boundary), emitted once execution catches up to it.
type cpPoint struct {
	seq    types.SeqNum
	prefix types.Digest
}

// cpMeta retains the digest components of an emitted checkpoint so the
// replica can later serve state transfer at it.
type cpMeta struct {
	prefix types.Digest
	state  types.Digest
}

// cpMetaKeep bounds the retained checkpoint metadata (Byzantine checkpoint
// floods must not balloon memory).
const cpMetaKeep = 16

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
	r.maybeEmitCheckpoints()
}

// maybeEmitCheckpoints broadcasts scheduled checkpoints whose canonical
// state is now computable (every block at or below the checkpoint has
// executed locally).
func (r *Replica) maybeEmitCheckpoints() {
	for len(r.pendingCps) > 0 && r.pendingCps[0].seq <= r.execSeq {
		cp := r.pendingCps[0]
		r.pendingCps = r.pendingCps[1:]
		state := stateDigestOf(r.canonicalPairsAt(cp.seq))
		remember(r.cpMeta, cp.seq, cpMeta{prefix: cp.prefix, state: state})
		r.PBFT.MakeCheckpoint(cp.seq, compositeCpDigest(cp.prefix, state))
	}
}

// canonicalPairsAt reconstructs the canonical key-value state at stable
// checkpoint S from the live store: execution is additive, so subtracting
// the combined operand of every write of executed blocks with Seq > S
// rewinds exactly those blocks. All such blocks are retained in the chain
// (pruning only drops blocks below the stable watermark) with their results
// cached in r.Results. The dump is in key order, so each such write finds
// its record by binary search and the rest of the table is not visited.
func (r *Replica) canonicalPairsAt(s types.SeqNum) []store.Pair {
	pairs := r.KV.Pairs()
	byKey := func(p store.Pair, k types.Key) int { return cmp.Compare(p.K, k) }
	for _, b := range r.Ledger.Blocks()[1:] {
		if b.Seq <= s || b.Batch == nil {
			continue
		}
		res := r.Results[b.Digest]
		for i := range b.Batch.Txns {
			if i >= len(res) {
				break
			}
			for _, k := range b.Batch.Txns[i].Writes {
				if types.OwnerShard(k, r.Cfg.Shards) != r.Shard {
					continue
				}
				if j, ok := slices.BinarySearchFunc(pairs, k, byKey); ok {
					pairs[j].V -= res[i]
				}
			}
		}
	}
	return pairs
}

// stateDigestOf hashes pairs (already in ascending key order) into the
// collision-resistant state digest checkpoints certify: SHA-256 over each
// pair's key and value as big-endian u64s, encoded a chunk at a time into
// one buffer.
func stateDigestOf(pairs []store.Pair) types.Digest {
	h := sha256.New()
	buf := make([]byte, 0, 16*256)
	for len(pairs) > 0 {
		n := min(len(pairs), cap(buf)/16)
		for _, p := range pairs[:n] {
			buf = binary.BigEndian.AppendUint64(buf, uint64(p.K))
			buf = binary.BigEndian.AppendUint64(buf, uint64(p.V))
		}
		h.Write(buf)
		buf, pairs = buf[:0], pairs[n:]
	}
	var d types.Digest
	h.Sum(d[:0])
	return d
}

// compositeCpDigest binds the ledger-order digest and the canonical state
// digest into the single digest Checkpoint messages carry.
func compositeCpDigest(prefix, state types.Digest) types.Digest {
	var buf [64]byte
	copy(buf[:32], prefix[:])
	copy(buf[32:], state[:])
	return sha256Sum(buf[:])
}

// remember stores v under seq in m, evicting the lowest sequence once m
// holds more than cpMetaKeep entries.
func remember[V any](m map[types.SeqNum]V, seq types.SeqNum, v V) {
	m[seq] = v
	if len(m) > cpMetaKeep {
		oldest := seq
		for s := range m {
			if s < oldest {
				oldest = s
			}
		}
		delete(m, oldest)
	}
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
	s.PrefixDigest, s.LastCheckpoint = r.cps.Prefix(), r.cps.Last()
}

// logProgress durably records a k_max advance (see wal.ProgressRecord).
func (r *Replica) logProgress(batchDigest types.Digest) {
	if r.Dur == nil {
		return
	}
	r.DurOK(r.Dur.LogProgress(r.kmax(), r.cps.Prefix(), r.cps.Last(), batchDigest, r.PBFT.View()))
}

// applyRecovered folds a snapshot plus the WAL tail (host.Recover) into
// the ring layer's progress: the checkpoint schedule advances to the
// lock-order watermark and prefix digest of the newest progress record
// (its boundary follows from the watermark, so the recorded LastCheckpoint
// is not read back), and the executed watermark covers every recovered
// block (no checkpoint is pending yet, so markExecuted emits none). Called
// from Preload, after the base table is installed and before any message
// is handled.
func (r *Replica) applyRecovered(rec *wal.Recovered) {
	if snap := rec.Snap; snap != nil {
		r.execSeq = snap.ExecSeq
		r.cps.Advance(snap.KMax, snap.PrefixDigest)
	}
	r.Recover(rec, r.markExecuted, func(t *wal.Record) { r.cps.Advance(t.Seq, t.PrefixDigest) })
	r.PBFT.ResumeAt(r.LastSnap, r.kmax()+1)
	r.recovered = true
}
