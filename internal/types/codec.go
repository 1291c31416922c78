package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the one binary codec of the repository: the wire encoding of
// Message (tcpnet frames) and the primitives the WAL record, snapshot and
// evidence formats are written with. The decoder is the specification:
//
//   - integers are fixed-width big-endian; signed ints travel as their
//     two's-complement uint64, so CommitteeShard (-1) survives;
//   - an optional pointer is a presence byte, 0 or 1, then the value;
//   - a slice is a u64 count then the elements; the count is checked
//     against the bytes that remain, divided by the smallest encoding of
//     one element, before anything is allocated, and a zero count decodes
//     to nil;
//   - byte strings (MAC, Sig) are a u64 length then the bytes, copied out
//     of the input so a decoded value never aliases a reused read buffer;
//   - an unknown version, a MsgType >= msgTypeCount, a bool byte above 1,
//     a Reqs entry above MaxUint32 and any trailing byte are errors.
//
// Together these make the encoding canonical: a byte string that decodes
// re-encodes to itself (FuzzDecodeMessage, FuzzDecodeRecord).

// wireVersion leads every encoded Message. There is no negotiation: a frame
// with any other first byte is a bad frame.
const wireVersion = 1

// Smallest encodings of one slice element, for the count check.
const (
	nodeIDSize      = 1 + 2*8
	minTxnSize      = 5 * 8                         // id, two empty key lists, delta
	minWriteSetSize = 5 * 8                         // shard, four empty lists
	minSignedSize   = nodeIDSize + 1 + 3*8 + 32 + 8 // tuple, empty Sig
	minProofSize    = 2*8 + 32 + 1 + 8              // view, seq, digest, absent batch, no justification
	pairSize        = 2 * 8
)

// ---- encoding ----------------------------------------------------------

// AppendU64 appends v as 8 big-endian bytes.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendU64s appends a u64 count and then each element of s as a u64.
func AppendU64s[T ~uint64 | ~int | ~uint32](dst []byte, s []T) []byte {
	dst = AppendU64(dst, uint64(len(s)))
	for _, v := range s {
		dst = AppendU64(dst, uint64(v))
	}
	return dst
}

// AppendBytes appends a u64 length and then b.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU64(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendNodeID appends id as kind byte, shard, index.
func AppendNodeID(dst []byte, id NodeID) []byte {
	dst = append(dst, byte(id.Kind))
	dst = AppendU64(dst, uint64(id.Shard))
	return AppendU64(dst, uint64(id.Index))
}

// AppendBatch appends b in the field order of Batch.Digest, except that the
// Reqs count is always present. WAL block records and snapshots embed
// exactly these bytes.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = AppendU64(dst, uint64(len(b.Txns)))
	for i := range b.Txns {
		t := &b.Txns[i]
		dst = AppendU64(dst, uint64(t.ID.Client))
		dst = AppendU64(dst, t.ID.Seq)
		dst = AppendU64s(dst, t.Reads)
		dst = AppendU64s(dst, t.Writes)
		dst = AppendU64(dst, uint64(t.Delta))
	}
	dst = AppendU64s(dst, b.Involved)
	return AppendU64s(dst, b.Reqs)
}

// AppendPairs appends a u64 count and then each record as key, value.
func AppendPairs(dst []byte, ps []Pair) []byte {
	dst = AppendU64(slices.Grow(dst, 8+pairSize*len(ps)), uint64(len(ps)))
	for _, p := range ps {
		dst = AppendU64(dst, uint64(p.K))
		dst = AppendU64(dst, uint64(p.V))
	}
	return dst
}

func appendOptBatch(dst []byte, b *Batch) []byte {
	if b == nil {
		return append(dst, 0)
	}
	return AppendBatch(append(dst, 1), b)
}

func appendSigned(dst []byte, s []Signed) []byte {
	dst = AppendU64(dst, uint64(len(s)))
	for i := range s {
		v := &s[i]
		dst = AppendNodeID(dst, v.From)
		dst = append(dst, byte(v.Type))
		dst = AppendU64(dst, uint64(v.Shard))
		dst = AppendU64(dst, uint64(v.View))
		dst = AppendU64(dst, uint64(v.Seq))
		dst = append(dst, v.Digest[:]...)
		dst = AppendBytes(dst, v.Sig)
	}
	return dst
}

func appendProofs(dst []byte, ps []PreparedProof) []byte {
	dst = AppendU64(dst, uint64(len(ps)))
	for i := range ps {
		p := &ps[i]
		dst = AppendU64(dst, uint64(p.View))
		dst = AppendU64(dst, uint64(p.Seq))
		dst = append(dst, p.Digest[:]...)
		dst = appendOptBatch(dst, p.Batch)
		dst = appendSigned(dst, p.Justification)
	}
	return dst
}

func appendStatePayload(dst []byte, s *StatePayload) []byte {
	dst = AppendU64(dst, uint64(s.Seq))
	dst = append(dst, s.PrefixDigest[:]...)
	dst = append(dst, s.StateDigest[:]...)
	dst = AppendPairs(dst, s.Pairs)
	return appendSigned(dst, s.Cert)
}

// AppendMessage appends the wire encoding of m to dst and returns the
// extended slice.
func AppendMessage(dst []byte, m *Message) []byte {
	dst = append(dst, wireVersion, byte(m.Type))
	dst = AppendNodeID(dst, m.From)
	dst = AppendU64(dst, uint64(m.View))
	dst = AppendU64(dst, uint64(m.Seq))
	dst = AppendU64(dst, uint64(m.Shard))
	dst = append(dst, m.Digest[:]...)
	dst = AppendBool(dst, m.Decision)
	dst = AppendU64(dst, uint64(m.Instance))
	dst = AppendU64(dst, uint64(m.StableSeq))
	dst = appendOptBatch(dst, m.Batch)
	dst = AppendU64(dst, uint64(len(m.WriteSets)))
	for i := range m.WriteSets {
		ws := &m.WriteSets[i]
		dst = AppendU64(dst, uint64(ws.Shard))
		dst = AppendU64s(dst, ws.Keys)
		dst = AppendU64s(dst, ws.Values)
		dst = AppendU64s(dst, ws.ReadKeys)
		dst = AppendU64s(dst, ws.ReadValues)
	}
	dst = appendSigned(dst, m.Cert)
	dst = AppendU64s(dst, m.Results)
	if m.State == nil {
		dst = append(dst, 0)
	} else {
		dst = appendStatePayload(append(dst, 1), m.State)
	}
	dst = appendProofs(dst, m.Prepared)
	dst = appendSigned(dst, m.ViewMsgs)
	dst = AppendBytes(dst, m.MAC)
	return AppendBytes(dst, m.Sig)
}

// ---- decoding ----------------------------------------------------------

// ErrMalformed is wrapped by every decode failure of this codec.
var ErrMalformed = errors.New("types: malformed encoding")

// Reader is the bounds-checked cursor every decoder of peer- or
// disk-supplied bytes in this repository reads through. A failed read
// returns the zero value and latches the first error; callers decode
// straight through and check Done once at the end, and a count
// that failed is 0, so no loop runs and nothing is allocated on a bad path.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d of %d", ErrMalformed, what, r.off, len(r.buf))
	}
}

// Done returns the first error the cursor hit, or an error when input
// remains unread: trailing bytes are never ignored.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("trailing bytes")
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("flag byte above 1")
	}
	return v == 1
}

// U64 reads 8 big-endian bytes.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.buf)-r.off < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Digest reads 32 bytes.
func (r *Reader) Digest() (d Digest) {
	if r.err != nil || len(r.buf)-r.off < len(d) {
		r.fail("truncated")
		return
	}
	copy(d[:], r.buf[r.off:])
	r.off += len(d)
	return
}

// Count reads a u64 element count and rejects one that the remaining input
// cannot hold at minElem bytes per element. The check precedes every
// allocation sized by the count, so a hostile length costs nothing.
func (r *Reader) Count(minElem int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off)/uint64(minElem) {
		r.fail("count exceeds input")
		return 0
	}
	return int(n)
}

// Bytes reads a u64 length and that many bytes, copied. Empty is nil.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail("length exceeds input")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return out
}

// ReadU64s reads a u64 count and that many u64 elements. Empty is nil.
func ReadU64s[T ~uint64 | ~int](r *Reader) []T {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.U64())
	}
	return out
}

// NodeID reads what AppendNodeID wrote.
func (r *Reader) NodeID() (id NodeID) {
	id.Kind = NodeKind(r.U8())
	id.Shard = ShardID(r.U64())
	id.Index = int(r.U64())
	return
}

// Batch reads what AppendBatch wrote. The result is never nil; it is
// meaningful only if the cursor's error stays nil.
func (r *Reader) Batch() *Batch {
	b := &Batch{}
	if n := r.Count(minTxnSize); n > 0 {
		b.Txns = make([]Txn, n)
		for i := range b.Txns {
			t := &b.Txns[i]
			t.ID.Client = ClientID(r.U64())
			t.ID.Seq = r.U64()
			t.Reads = ReadU64s[Key](r)
			t.Writes = ReadU64s[Key](r)
			t.Delta = Value(r.U64())
		}
	}
	b.Involved = ReadU64s[ShardID](r)
	if n := r.Count(8); n > 0 {
		b.Reqs = make([]uint32, n)
		for i := range b.Reqs {
			v := r.U64()
			if v > math.MaxUint32 {
				r.fail("request size above MaxUint32")
			}
			b.Reqs[i] = uint32(v)
		}
	}
	return b
}

// Pairs reads what AppendPairs wrote. Empty is nil.
func (r *Reader) Pairs() []Pair {
	n := r.Count(pairSize)
	if n == 0 {
		return nil
	}
	out := make([]Pair, n)
	for i := range out {
		out[i].K = Key(r.U64())
		out[i].V = Value(r.U64())
	}
	return out
}

func (r *Reader) optBatch() *Batch {
	if !r.Bool() {
		return nil
	}
	return r.Batch()
}

func (r *Reader) msgType() MsgType {
	t := MsgType(r.U8())
	if t >= msgTypeCount {
		r.fail("unknown message type")
	}
	return t
}

func (r *Reader) signed() []Signed {
	n := r.Count(minSignedSize)
	if n == 0 {
		return nil
	}
	out := make([]Signed, n)
	for i := range out {
		s := &out[i]
		s.From = r.NodeID()
		s.Type = r.msgType()
		s.Shard = ShardID(r.U64())
		s.View = View(r.U64())
		s.Seq = SeqNum(r.U64())
		s.Digest = r.Digest()
		s.Sig = r.Bytes()
	}
	return out
}

func (r *Reader) proofs() []PreparedProof {
	n := r.Count(minProofSize)
	if n == 0 {
		return nil
	}
	out := make([]PreparedProof, n)
	for i := range out {
		p := &out[i]
		p.View = View(r.U64())
		p.Seq = SeqNum(r.U64())
		p.Digest = r.Digest()
		p.Batch = r.optBatch()
		p.Justification = r.signed()
	}
	return out
}

func (r *Reader) statePayload() *StatePayload {
	s := &StatePayload{}
	s.Seq = SeqNum(r.U64())
	s.PrefixDigest = r.Digest()
	s.StateDigest = r.Digest()
	s.Pairs = r.Pairs()
	s.Cert = r.signed()
	return s
}

// DecodeMessage parses one AppendMessage encoding occupying all of buf into
// m, overwriting it. On error m is partially filled and must be discarded.
// Nothing in m aliases buf.
func DecodeMessage(buf []byte, m *Message) error {
	*m = Message{}
	r := NewReader(buf)
	if r.U8() != wireVersion {
		r.fail("unknown wire version")
	}
	m.Type = r.msgType()
	m.From = r.NodeID()
	m.View = View(r.U64())
	m.Seq = SeqNum(r.U64())
	m.Shard = ShardID(r.U64())
	m.Digest = r.Digest()
	m.Decision = r.Bool()
	m.Instance = int(r.U64())
	m.StableSeq = SeqNum(r.U64())
	m.Batch = r.optBatch()
	if n := r.Count(minWriteSetSize); n > 0 {
		m.WriteSets = make([]WriteSet, n)
		for i := range m.WriteSets {
			ws := &m.WriteSets[i]
			ws.Shard = ShardID(r.U64())
			ws.Keys = ReadU64s[Key](r)
			ws.Values = ReadU64s[Value](r)
			ws.ReadKeys = ReadU64s[Key](r)
			ws.ReadValues = ReadU64s[Value](r)
		}
	}
	m.Cert = r.signed()
	m.Results = ReadU64s[Value](r)
	if r.Bool() {
		m.State = r.statePayload()
	}
	m.Prepared = r.proofs()
	m.ViewMsgs = r.signed()
	m.MAC = r.Bytes()
	m.Sig = r.Bytes()
	return r.Done()
}
