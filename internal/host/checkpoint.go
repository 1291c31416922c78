package host

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"ringbft/internal/store"
	"ringbft/internal/types"
)

// One checkpoint content for every shard replica. A checkpoint at S
// certifies H(prefix || state): prefix is the rolling fold of the batch
// digests committed through S (the replica's pbft.CheckpointTracker), and
// state is the SHA-256 of the canonical key-value table at S, the table
// obtained by executing exactly the blocks with sequence <= S. Every honest
// replica agrees on that table even though a RingBFT replica's live store
// interleaves later writes differently, so the nf signed Checkpoint
// messages double as a certificate over the state itself: peer state
// transfer ships the table and nothing else (transfer.go).
//
// The tracker schedules a checkpoint when the committed prefix crosses an
// interval boundary; the replica signs it once its executed watermark
// covers S, because the state digest needs every block <= S applied.
// Execution is additive (data[k] += combined), so the table at S is the
// live table minus the writes of the executed blocks past S. For a replica
// that executes in sequence order no such block exists at emission, and
// the rewind is a no-op.

// cpPoint is a checkpoint the tracker scheduled, with the prefix fold at
// its sequence, waiting for execution to cover it.
type cpPoint struct {
	seq    types.SeqNum
	prefix types.Digest
}

// checkpoint is one row of the checkpoint table: this replica's own digest
// components, set when it signed the checkpoint, and the certificate, set
// once nf replicas signed one digest there (the engine saw it stabilize, or
// a peer state transfer carried it).
type checkpoint struct {
	prefix, state types.Digest
	digest        types.Digest   // the certified digest
	cert          []types.Signed // nil until certified
}

// cpKeep bounds the checkpoint table: a flood of Byzantine checkpoints must
// not balloon memory, and an answer may anchor on a checkpoint below the
// newest one this replica saw stabilize.
const cpKeep = 16

// schedule is the tracker's emit hook: checkpoint seq, whose prefix fold is
// prefix, waits until execution covers it (EmitCheckpoints).
func (k *Kernel) schedule(seq types.SeqNum, prefix types.Digest) {
	k.pending = append(k.pending, cpPoint{seq: seq, prefix: prefix})
}

// keepCert records checkpoint seq's certificate unless one is held.
func (k *Kernel) keepCert(seq types.SeqNum, d types.Digest, cert []types.Signed) {
	if c := k.cps[seq]; c.cert == nil {
		c.digest, c.cert = d, cert
		k.keep(seq, c)
	}
}

// keep stores row c at seq, evicting the lowest row past cpKeep.
func (k *Kernel) keep(seq types.SeqNum, c checkpoint) {
	k.cps[seq] = c
	if len(k.cps) > cpKeep {
		lowest := seq
		for s := range k.cps {
			if s < lowest {
				lowest = s
			}
		}
		delete(k.cps, lowest)
	}
}

// EmitCheckpoints signs every scheduled checkpoint the executed watermark
// now covers: every block at or below it has executed locally. Call it
// whenever that watermark advances.
func (r *Replica) EmitCheckpoints(executed types.SeqNum) {
	for len(r.pending) > 0 && r.pending[0].seq <= executed {
		cp := r.pending[0]
		r.pending = r.pending[1:]
		state := stateDigestOf(r.canonicalPairsAt(cp.seq))
		c := r.cps[cp.seq]
		c.prefix, c.state = cp.prefix, state
		r.keep(cp.seq, c)
		r.PBFT.MakeCheckpoint(cp.seq, compositeCpDigest(cp.prefix, state))
	}
}

// canonicalPairsAt reconstructs the canonical key-value state at checkpoint
// S from the live store: execution is additive, so subtracting the combined
// operand of every write of executed blocks with Seq > S rewinds exactly
// those blocks. All such blocks are retained in the chain (a cut only drops
// blocks below a checkpoint) with their results cached in r.Results. The
// dump is in key order, so each such write finds its record by binary
// search and the rest of the table is not visited.
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

// compositeCpDigest binds the prefix fold and the canonical state digest
// into the single digest Checkpoint messages carry.
func compositeCpDigest(prefix, state types.Digest) types.Digest {
	var buf [64]byte
	copy(buf[:32], prefix[:])
	copy(buf[32:], state[:])
	return sha256.Sum256(buf[:])
}
