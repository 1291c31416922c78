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

// This file wires the durability subsystem (internal/wal) into the replica:
//
//   - every lock-order advance appends a progress record and every executed
//     block a block record to the segmented WAL (group-committed fsync);
//   - stable PBFT checkpoints cut a snapshot of the store + ledger, after
//     which old WAL segments and in-memory blocks below the checkpoint are
//     garbage-collected;
//   - a restarted replica loads the latest snapshot, replays the WAL tail,
//     and resumes consensus at the recovered sequence.
//
// Checkpoint digests are composite — H(prefixDigest || stateDigest) — where
// stateDigest is the SHA-256 of the *canonical state at the checkpoint*:
// the key-value table obtained by executing exactly the blocks with
// sequence <= S. Every honest replica agrees on that state even though
// their live stores interleave later writes differently, so the nf signed
// Checkpoint messages double as a certificate over the state itself — the
// foundation of peer state transfer (statetransfer.go). Because execution
// is additive (data[k] += combined), the canonical state is reconstructed
// from the live store by subtracting the writes of executed blocks beyond
// the checkpoint.

// cpPoint is a checkpoint scheduled at lock time (k_max crossing an
// interval boundary) and emitted once execution catches up to it.
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

// cpMetaKeep bounds the retained checkpoint metadata and stabilized-digest
// maps (Byzantine checkpoint floods must not balloon memory).
const cpMetaKeep = 16

// canonCache is the single-slot cache of the newest checkpoint's canonical
// pairs: computed once at emission, reused for the state digest and for
// every state-transfer request served at that checkpoint.
type canonCache struct {
	seq   types.SeqNum
	pairs []store.Pair
}

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
// executed locally). The pairs computed for the digest are cached (one
// slot, newest checkpoint) so serving state-transfer requests for the
// current stable checkpoint does not re-dump the store per request.
func (r *Replica) maybeEmitCheckpoints() {
	for len(r.pendingCps) > 0 && r.pendingCps[0].seq <= r.execSeq {
		cp := r.pendingCps[0]
		r.pendingCps = r.pendingCps[1:]
		pairs := r.canonicalPairsAt(cp.seq)
		state := stateDigestOf(pairs)
		digest := compositeCpDigest(cp.prefix, state)
		remember(r.cpMeta, cp.seq, cpMeta{prefix: cp.prefix, state: state})
		r.canonCache = canonCache{seq: cp.seq, pairs: pairs}
		r.PBFT.MakeCheckpoint(cp.seq, digest)
	}
}

// canonicalPairsCached returns the canonical pairs at s, reusing the
// emission-time computation when s is the cached checkpoint.
func (r *Replica) canonicalPairsCached(s types.SeqNum) []store.Pair {
	if r.canonCache.seq == s && r.canonCache.pairs != nil {
		return r.canonCache.pairs
	}
	pairs := r.canonicalPairsAt(s)
	r.canonCache = canonCache{seq: s, pairs: pairs}
	return pairs
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
	remember(r.stabilized, seq, digest)
	r.settleBelow(seq)
	if interval := r.Cfg.CheckpointInterval; interval > 0 && seq >= r.kmax+interval {
		r.requestStateTransfer(seq)
		r.evaluateTransfer()
		return
	}
	r.evaluateTransfer()
	// Snapshot only once local execution covers the checkpoint: a cut
	// whose WAL is then garbage-collected must not be missing the batches
	// of committed-but-unexecuted cross-shard blocks below it (they exist
	// nowhere else on disk).
	if r.execSeq >= seq {
		r.maybeSnapshot(seq, digest)
	}
}

// maybeSnapshot cuts a durable snapshot at stable checkpoint seq (at most
// one per CheckpointInterval), prunes the in-memory chain and the
// executed-results cache below it, and garbage-collects the WAL segments
// the snapshot covers.
func (r *Replica) maybeSnapshot(seq types.SeqNum, digest types.Digest) {
	if r.Dur == nil || seq < r.lastSnapshot+r.Cfg.CheckpointInterval {
		return
	}
	r.pruneBelow(seq)
	if r.DurOK(r.Dur.SaveSnapshot(r.buildSnapshot(seq, digest))) {
		r.lastSnapshot = seq
	}
}

// pruneBelow garbage-collects in-memory history below a stable checkpoint:
// the ledger blocks and their cached execution results. The `proposed` set
// is kept — at ~48 bytes per digest it is cheap, and it is what stops a
// replayed client request from re-ordering an ancient batch (attack A1).
func (r *Replica) pruneBelow(seq types.SeqNum) {
	// Stop at the first retained block >= seq, mirroring Chain.Prune's cut
	// exactly — an out-of-order block behind the boundary stays in the
	// chain and must keep its cached results.
	for _, b := range r.Ledger.Blocks()[1:] {
		if b.Seq >= seq {
			break
		}
		delete(r.Results, b.Digest)
	}
	r.Ledger.Prune(seq)
}

// buildSnapshot captures the replica's current durable cut, anchored at
// stable checkpoint (seq, digest).
func (r *Replica) buildSnapshot(seq types.SeqNum, digest types.Digest) *wal.Snapshot {
	snap := &wal.Snapshot{
		Shard:            r.Shard,
		StableSeq:        seq,
		CheckpointDigest: digest,
		KMax:             r.kmax,
		ExecSeq:          r.execSeq,
		View:             r.PBFT.View(),
		PrefixDigest:     r.prefixDigest,
		LastCheckpoint:   r.lastCheckpoint,
		Pairs:            r.KV.Pairs(),
	}
	snap.CaptureChain(r.Ledger, func(d types.Digest) []types.Value { return r.Results[d] })
	return snap
}

// logProgress durably records a k_max advance (see wal.ProgressRecord).
func (r *Replica) logProgress(batchDigest types.Digest) {
	if r.Dur == nil {
		return
	}
	r.DurOK(r.Dur.LogProgress(r.kmax, r.prefixDigest, r.lastCheckpoint, batchDigest, r.PBFT.View()))
}

// logBlock durably records an executed block (empty batches — view-change
// no-op fillers — are logged too, so recovery can advance the executed
// watermark across them).
func (r *Replica) logBlock(seq types.SeqNum, primary types.NodeID, batch *types.Batch, results []types.Value) {
	if r.Dur == nil {
		return
	}
	r.DurOK(r.Dur.LogBlock(seq, primary, batch, results))
}

// recoverExecuted repopulates the executed/proposed caches for one
// recovered block. A coalesced block (adaptive batching, Batch.Reqs) is
// additionally split back into its original client requests so a client
// retransmitting after the restart is answered under the digest it is
// waiting on, exactly as the live respondBatch path would have.
func (r *Replica) recoverExecuted(b *types.Batch, results []types.Value) {
	d := b.Digest()
	r.Results[d] = results
	r.Proposed[d] = struct{}{}
	if len(b.Reqs) < 2 || len(results) < len(b.Txns) {
		return
	}
	lo := 0
	for _, sb := range b.SubBatches() {
		sd := sb.Digest()
		r.Results[sd] = results[lo : lo+len(sb.Txns)]
		r.Proposed[sd] = struct{}{}
		lo += len(sb.Txns)
	}
}

// applyRecovered rebuilds replica state from a snapshot plus the WAL tail.
// Called from Preload, after the base table is installed and before any
// message is handled.
func (r *Replica) applyRecovered(rec *wal.Recovered) {
	var view types.View
	if snap := rec.Snap; snap != nil {
		view = snap.View
		r.KV.Restore(snap.Pairs)
		r.Ledger = snap.RebuildChain(func(sb *wal.SnapBlock) {
			r.recoverExecuted(sb.Batch, sb.Results)
			r.execDone[sb.Seq] = struct{}{}
		})
		r.kmax = snap.KMax
		r.execSeq = snap.ExecSeq
		r.prefixDigest = snap.PrefixDigest
		r.lastCheckpoint = snap.LastCheckpoint
		r.lastSnapshot = snap.StableSeq
		remember(r.stabilized, snap.StableSeq, snap.CheckpointDigest)
	}
	for i := range rec.Tail {
		t := &rec.Tail[i]
		switch t.Kind {
		case wal.KindProgress:
			r.kmax = t.Seq
			r.prefixDigest = t.PrefixDigest
			r.lastCheckpoint = t.LastCheckpoint
			r.Proposed[t.BatchDigest] = struct{}{}
			if t.View > view {
				view = t.View
			}
		case wal.KindBlock:
			if len(t.Batch.Txns) == 0 {
				r.execDone[t.Seq] = struct{}{}
				continue
			}
			for j := range t.Batch.Txns {
				if j >= len(t.Results) {
					break
				}
				r.KV.ApplyTxnWrites(&t.Batch.Txns[j], r.Shard, r.Cfg.Shards, t.Results[j])
			}
			r.recoverExecuted(t.Batch, t.Results)
			r.Ledger.Append(t.Seq, t.Primary, t.Batch)
			r.execDone[t.Seq] = struct{}{}
		default:
			// Evidence records live in the evidence log's own WAL, not the
			// replica's; any other kind in the tail is not replica state.
		}
	}
	// Settle the executed watermark over everything recovered.
	for {
		if _, ok := r.execDone[r.execSeq+1]; !ok {
			break
		}
		delete(r.execDone, r.execSeq+1)
		r.execSeq++
	}
	for seq := range r.execDone {
		if seq <= r.execSeq {
			delete(r.execDone, seq)
		}
	}
	stable := types.SeqNum(0)
	if rec.Snap != nil {
		stable = rec.Snap.StableSeq
	}
	// Rejoin the view the shard was in when we last made progress; without
	// this, a replica restarted after a view change would stash every
	// current-view message as "future" and never catch up.
	if view > 0 {
		r.PBFT.ForceView(view)
	}
	r.PBFT.ResumeAt(stable, r.kmax+1)
	r.recovered = true
}
