package wal

import (
	"errors"
	"fmt"

	"ringbft/internal/types"
)

// RecordKind discriminates WAL record payloads.
type RecordKind uint8

const (
	// KindBlock records one executed block: the ordered batch plus the
	// per-transaction combined results. Results ride along so crash
	// recovery can re-apply the writes deterministically without the
	// cross-shard Σ values that produced them (a restarted replica cannot
	// re-collect remote read sets).
	KindBlock RecordKind = iota + 1
	// KindProgress records the consensus watermarks advanced at lock time:
	// k_max, the rolling prefix digest, the last checkpoint scheduled, and
	// the digest of the batch whose lock advanced k_max. Cross-shard blocks
	// execute after their sequence locks, so these cannot be derived from
	// block records alone — and the batch digest lets recovery mark the
	// batch as already ordered, so a restarted primary never re-proposes a
	// batch the shard committed before the crash.
	KindProgress
	// KindEvidence records one opaque payload for the misbehavior evidence
	// log (internal/evidence). The WAL does not interpret the bytes — it
	// only gives evidence the same framing, checksumming, and torn-tail
	// repair the consensus log gets, so an accusation survives a crash with
	// the offending messages intact.
	KindEvidence
)

// Record is one WAL entry. LSN is assigned by Append and is strictly
// increasing across segments; replay uses it to cut duplicated tails.
type Record struct {
	LSN  uint64
	Kind RecordKind

	// KindBlock fields.
	Seq     types.SeqNum
	Primary types.NodeID
	Batch   *types.Batch
	Results []types.Value

	// KindProgress fields (Seq doubles as k_max).
	PrefixDigest   types.Digest
	LastCheckpoint types.SeqNum
	BatchDigest    types.Digest
	View           types.View // view at lock time, so recovery rejoins it

	// KindEvidence field: the encoded evidence record, opaque to the WAL.
	Payload []byte
}

// ErrCorrupt reports a record that fails structural or checksum validation
// somewhere other than the replayable tail of the last segment.
var ErrCorrupt = errors.New("wal: corrupt record")

// encode serializes rec's payload (everything but the frame).
func (rec *Record) encode(dst []byte) []byte {
	dst = types.AppendU64(dst, rec.LSN)
	dst = append(dst, byte(rec.Kind))
	switch rec.Kind {
	case KindBlock:
		dst = types.AppendU64(dst, uint64(rec.Seq))
		dst = types.AppendNodeID(dst, rec.Primary)
		dst = types.AppendBatch(dst, rec.Batch)
		dst = types.AppendU64s(dst, rec.Results)
	case KindProgress:
		dst = types.AppendU64(dst, uint64(rec.Seq))
		dst = append(dst, rec.PrefixDigest[:]...)
		dst = types.AppendU64(dst, uint64(rec.LastCheckpoint))
		dst = append(dst, rec.BatchDigest[:]...)
		dst = types.AppendU64(dst, uint64(rec.View))
	case KindEvidence:
		dst = types.AppendBytes(dst, rec.Payload)
	}
	return dst
}

// decodeRecord parses one payload through types' cursor. A nil return
// means the payload is malformed (treated as corruption by the caller).
func decodeRecord(buf []byte) *Record {
	r := types.NewReader(buf)
	rec := &Record{LSN: r.U64(), Kind: RecordKind(r.U8())}
	switch rec.Kind {
	case KindBlock:
		rec.Seq = types.SeqNum(r.U64())
		rec.Primary = r.NodeID()
		rec.Batch = r.Batch()
		rec.Results = types.ReadU64s[types.Value](r)
	case KindProgress:
		rec.Seq = types.SeqNum(r.U64())
		rec.PrefixDigest = r.Digest()
		rec.LastCheckpoint = types.SeqNum(r.U64())
		rec.BatchDigest = r.Digest()
		rec.View = types.View(r.U64())
	case KindEvidence:
		rec.Payload = r.Bytes()
	default:
		return nil
	}
	if r.Done() != nil {
		return nil
	}
	return rec
}

func (k RecordKind) String() string {
	switch k {
	case KindBlock:
		return "block"
	case KindProgress:
		return "progress"
	case KindEvidence:
		return "evidence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}
