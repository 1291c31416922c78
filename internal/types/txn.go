package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
)

// Key is a record key in the sharded YCSB-style table. Ownership is
// determined by OwnerShard: the table is range/hash partitioned so that each
// shard manages a unique partition of the data (Section 3).
type Key uint64

// OwnerShard returns the shard that owns key k in a system of z shards.
func OwnerShard(k Key, z int) ShardID {
	if z <= 0 {
		return 0
	}
	return ShardID(uint64(k) % uint64(z))
}

// Value is a record value. YCSB read-modify-write transactions update values
// deterministically so every non-faulty replica computes identical state.
type Value uint64

// HashValues folds a result vector into a deterministic FNV-1a hash.
// Replicas expose their executed-result caches as digest->HashValues maps so
// cross-replica checkers can compare execution outcomes without shipping the
// vectors themselves.
func HashValues(vals []Value) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	var buf [8]byte
	for _, v := range vals {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		for _, b := range buf {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// TxnID uniquely identifies a client transaction.
type TxnID struct {
	Client ClientID
	Seq    uint64
}

// Txn is a deterministic transaction: its read and write sets are known
// prior to consensus (Section 3, "Deterministic Transactions"). Execution
// semantics are read-modify-write: every write key's new value is
// f(old value, Delta, sum of all read values), which gives cross-shard data
// dependencies their teeth — a shard cannot compute its writes without the
// read values shipped from remote shards (complex cst, Section 8.8).
type Txn struct {
	ID     TxnID
	Reads  []Key // keys read; may span shards (remote reads => complex cst)
	Writes []Key // keys written; owner shards form the involved set with Reads
	Delta  Value // client-supplied operand folded into each write
}

// InvolvedShards returns the sorted set of shards a transaction touches in a
// system of z shards. The first element is the initiator shard (lowest ring
// identifier among involved shards; Section 4.2.1).
func (t *Txn) InvolvedShards(z int) []ShardID {
	seen := make(map[ShardID]struct{}, 4)
	for _, k := range t.Reads {
		seen[OwnerShard(k, z)] = struct{}{}
	}
	for _, k := range t.Writes {
		seen[OwnerShard(k, z)] = struct{}{}
	}
	out := make([]ShardID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReadsAt returns the subset of t.Reads owned by shard s.
func (t *Txn) ReadsAt(s ShardID, z int) []Key {
	var out []Key
	for _, k := range t.Reads {
		if OwnerShard(k, z) == s {
			out = append(out, k)
		}
	}
	return out
}

// WritesAt returns the subset of t.Writes owned by shard s.
func (t *Txn) WritesAt(s ShardID, z int) []Key {
	var out []Key
	for _, k := range t.Writes {
		if OwnerShard(k, z) == s {
			out = append(out, k)
		}
	}
	return out
}

// Digest is a SHA-256 digest of a batch or message (the paper's Δ).
type Digest [32]byte

// IsZero reports whether d is the all-zero digest.
func (d Digest) IsZero() bool { return d == Digest{} }

// SortedDigestKeys returns the keys of m in lexicographic byte order: the
// deterministic replacement for ranging over a Digest-keyed map wherever
// iteration order can reach a protocol decision or the network.
func SortedDigestKeys[V any](m map[Digest]V) []Digest {
	out := make([]Digest, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// SortedSeqKeys returns the keys of m in ascending sequence order: the
// deterministic replacement for ranging over a SeqNum-keyed map wherever
// iteration order can reach a protocol decision or the network.
func SortedSeqKeys[V any](m map[SeqNum]V) []SeqNum {
	out := make([]SeqNum, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Batch is the unit of consensus: the primary aggregates client transactions
// into a batch and runs consensus on the batch (Section 7, "Blockchain").
// All transactions in one batch access the same set of shards, so a batch is
// either entirely single-shard or entirely cross-shard with one involved set.
type Batch struct {
	Txns     []Txn
	Involved []ShardID // sorted ring order; len==1 => single-shard batch

	// Reqs records the transaction count of each original client request
	// in a batch that earlier builds merged from several queued requests.
	// Every live batch is exactly one client request and leaves it empty
	// (a replica drops a client request that sets it); the field stays
	// because the wire and disk formats carry it and logs written by those
	// builds hold such blocks. When set, len(Reqs) >= 2 and the counts sum
	// to len(Txns); recovery uses SubBatches to cache each original
	// request's results under the digest its client is waiting on.
	Reqs []uint32
}

// IsCrossShard reports whether the batch involves more than one shard.
func (b *Batch) IsCrossShard() bool { return len(b.Involved) > 1 }

// Initiator returns the first involved shard in ring order — the shard whose
// primary starts consensus on this batch.
func (b *Batch) Initiator() ShardID {
	if len(b.Involved) == 0 {
		return 0
	}
	return b.Involved[0]
}

// NextInRing returns the involved shard that follows s in ring order, and
// whether s is the last involved shard (in which case the successor wraps to
// the initiator, completing a rotation). Mirrors NextInRingOrder(ℑ) of Fig 5.
func (b *Batch) NextInRing(s ShardID) (next ShardID, wrapped bool) {
	for i, sh := range b.Involved {
		if sh == s {
			if i+1 < len(b.Involved) {
				return b.Involved[i+1], false
			}
			return b.Involved[0], true
		}
	}
	return b.Initiator(), false
}

// PrevInRing returns the involved shard that precedes s in ring order.
func (b *Batch) PrevInRing(s ShardID) ShardID {
	for i, sh := range b.Involved {
		if sh == s {
			if i == 0 {
				return b.Involved[len(b.Involved)-1]
			}
			return b.Involved[i-1]
		}
	}
	return b.Initiator()
}

// Involves reports whether shard s is in the batch's involved set.
func (b *Batch) Involves(s ShardID) bool {
	for _, sh := range b.Involved {
		if sh == s {
			return true
		}
	}
	return false
}

// digestStackBytes is Digest's stack buffer. It holds the canonical
// encoding of a batch of up to 60 single-shard read-modify-write
// transactions (56 bytes each, plus 8 per request boundary of a batch an
// earlier build merged); a larger encoding spills to one heap buffer.
const digestStackBytes = 4096

// Digest computes the batch digest Δ = H(batch) over a canonical binary
// encoding. Collision resistance of SHA-256 gives message integrity
// (Section 3, "Authenticated Communication").
//
// Every protocol step keys on Δ, so each replica derives it once per batch,
// where the batch enters — the client-request and PrePrepare content checks,
// the primary's proposal, the first Forward copy — and passes it along with
// the batch. It is never memoized on the Batch itself: the simulated network
// hands one pointer to every receiver, so a cached digest would let one
// replica's check stand in for another's.
func (b *Batch) Digest() Digest {
	var buf [digestStackBytes]byte
	return sha256.Sum256(b.appendCanonical(buf[:0]))
}

// appendCanonical appends the encoding Digest hashes: counts and fields as
// big-endian uint64s, transactions in order (AppendTxn), then the involved
// set.
//
// Request boundaries are part of the identity of a merged batch: two
// different slicings of the same transactions must not share a digest, or a
// Byzantine primary could equivocate on who gets answered. The section is
// appended only when boundaries exist, so single-request batches keep their
// historical digests (the encoding stays uniquely parseable: every field's
// length is determined by the counts before it, so equal encodings imply
// equal field values including the presence of this section).
func (b *Batch) appendCanonical(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Txns)))
	for i := range b.Txns {
		buf = AppendTxn(buf, &b.Txns[i])
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Involved)))
	for _, s := range b.Involved {
		buf = binary.BigEndian.AppendUint64(buf, uint64(s))
	}
	if len(b.Reqs) > 0 {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Reqs)))
		for _, n := range b.Reqs {
			buf = binary.BigEndian.AppendUint64(buf, uint64(n))
		}
	}
	return buf
}

// AppendTxn appends t's canonical encoding, the per-transaction section of
// Batch.Digest's input (and of the Merkle leaves over a block's
// transactions): client, sequence, the read and the write set each
// prefixed by its length, and the delta.
func AppendTxn(buf []byte, t *Txn) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.ID.Client))
	buf = binary.BigEndian.AppendUint64(buf, t.ID.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(t.Reads)))
	for _, k := range t.Reads {
		buf = binary.BigEndian.AppendUint64(buf, uint64(k))
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(t.Writes)))
	for _, k := range t.Writes {
		buf = binary.BigEndian.AppendUint64(buf, uint64(k))
	}
	return binary.BigEndian.AppendUint64(buf, uint64(t.Delta))
}

// Equal reports whether b and o agree field by field — exactly when their
// digests are equal, barring a SHA-256 collision: a nil slice equals an empty
// one, since both encode as a zero count. Comparing a batch against one
// already adopted under a checked digest costs a memory compare instead of a
// hash.
func (b *Batch) Equal(o *Batch) bool {
	return slices.EqualFunc(b.Txns, o.Txns, func(x, y Txn) bool {
		return x.ID == y.ID && x.Delta == y.Delta &&
			slices.Equal(x.Reads, y.Reads) && slices.Equal(x.Writes, y.Writes)
	}) && slices.Equal(b.Involved, o.Involved) && slices.Equal(b.Reqs, o.Reqs)
}

// SubBatches splits a merged batch back into the original client requests
// recorded in Reqs, each with the shared involved set (only requests with
// identical involved sets were ever merged). A batch without
// boundaries — or with malformed ones, which only a Byzantine primary can
// produce since boundaries are covered by the digest — is returned whole:
// the merged digest then answers no waiting client, and the client-side
// retransmission/view-change watchdogs recover liveness.
func (b *Batch) SubBatches() []Batch {
	if len(b.Reqs) < 2 || !b.validReqs() {
		return []Batch{*b}
	}
	out := make([]Batch, 0, len(b.Reqs))
	lo := 0
	for _, n := range b.Reqs {
		out = append(out, Batch{Txns: b.Txns[lo : lo+int(n)], Involved: b.Involved})
		lo += int(n)
	}
	return out
}

// validReqs reports whether the request boundaries are well formed: at
// least two non-empty requests whose counts sum to exactly len(Txns).
func (b *Batch) validReqs() bool {
	if len(b.Reqs) < 2 {
		return false
	}
	sum := 0
	for _, n := range b.Reqs {
		if n == 0 {
			return false
		}
		sum += int(n)
		if sum > len(b.Txns) {
			return false
		}
	}
	return sum == len(b.Txns)
}

// WriteSet is one shard's executed write set for a batch: the paper's Σℑ
// fragment shipped inside Execute messages so downstream shards can resolve
// read dependencies of complex cross-shard transactions.
type WriteSet struct {
	Shard  ShardID
	Keys   []Key
	Values []Value
	// ReadKeys/ReadValues carry this shard's read results forward so later
	// shards in ring order can satisfy remote-read dependencies.
	ReadKeys   []Key
	ReadValues []Value
}
