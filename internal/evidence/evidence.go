// Package evidence implements the misbehavior evidence log: a WAL-backed,
// deduplicating record of verifiable conflicting message pairs.
//
// RingBFT's safety argument tolerates f Byzantine replicas per shard, but
// tolerance is not accountability: when a primary equivocates, a replica
// forwards conflicting certificates, a new primary injects unjustified
// batches through a NewView, or a client submits conflicting transactions
// under one identifier (the paper's A1/A2 attacks), honest replicas can do
// better than merely surviving — they can record the offending messages as
// evidence that incriminates exactly the faulty node. Each record carries
// the canonical authenticated bytes of both offending messages, so the
// accusation can be re-verified: records built from Ed25519-signed messages
// are verifiable by any third party holding the public keys; records built
// from pairwise-MAC'd messages (PrePrepare/Prepare) are verifiable only by
// the recording replica, and are flagged as such.
package evidence

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Kind discriminates the classes of recordable misbehavior.
type Kind uint8

const (
	// KindEquivocation: the primary of a view proposed two different batch
	// digests at one (view, seq). The pair is the locally received
	// PrePrepare plus either a conflicting PrePrepare or the first of f+1
	// conflicting Prepares from distinct senders (at least one of f+1
	// distinct senders is honest and echoes what the primary sent it, so
	// the accusation against the primary is sound). MAC-authenticated:
	// verifiable by the recorder only.
	KindEquivocation Kind = iota + 1
	// KindConflictingForward: one previous-shard replica signed two Forward
	// messages for the same sequence with different batch digests. Both
	// signatures are transferable, so any third party can re-verify.
	KindConflictingForward
	// KindUnjustifiedNewView: a new primary's NewView re-proposed a
	// cross-shard batch without a valid Forward-certificate justification.
	// The signed NewView itself is the evidence (Second is empty).
	KindUnjustifiedNewView
	// KindConflictingClient: two client submissions shared a transaction
	// identifier but carried different payloads (attack A2); a duplicate
	// submission with identical payload (A1) is a legal retransmission and
	// is never recorded. Client requests are unauthenticated in this
	// implementation, so these records are advisory, not transferable.
	KindConflictingClient
)

func (k Kind) String() string {
	switch k {
	case KindEquivocation:
		return "equivocation"
	case KindConflictingForward:
		return "conflicting-forward"
	case KindUnjustifiedNewView:
		return "unjustified-newview"
	case KindConflictingClient:
		return "conflicting-client"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is the compact authenticated core of one offending message: the
// canonical tuple every signature and MAC in this repository covers, plus
// the authenticator bytes. It deliberately omits message bodies — the
// digest inside the tuple commits to the batch, which is all
// re-verification needs.
type Msg struct {
	From   types.NodeID
	Type   types.MsgType
	Shard  types.ShardID
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Sig    []byte // Ed25519 signature over the canonical tuple, if signed
	MAC    []byte // pairwise MAC over the canonical tuple, if MAC'd
}

// MsgOf extracts the authenticated core of m.
func MsgOf(m *types.Message) Msg {
	return Msg{
		From: m.From, Type: m.Type, Shard: m.Shard,
		View: m.View, Seq: m.Seq, Digest: m.Digest,
		Sig: append([]byte(nil), m.Sig...),
		MAC: append([]byte(nil), m.MAC...),
	}
}

// IsZero reports whether m is the empty message slot (the Second of a
// single-message record). Every real message has a non-zero type or a
// digest or an authenticator; the zero NodeID alone is ambiguous (it is
// also replica s0/r0).
func (m Msg) IsZero() bool {
	return m.From == (types.NodeID{}) && m.Type == 0 && m.Digest.IsZero() &&
		len(m.Sig) == 0 && len(m.MAC) == 0
}

// sigBytes returns the canonical bytes m's authenticators cover.
func (m *Msg) sigBytes() []byte {
	return types.SigBytes(m.Type, m.Shard, m.View, m.Seq, m.Digest, m.From)
}

// Record is one evidence entry: the accused node plus the offending
// message(s) that incriminate it.
type Record struct {
	Kind    Kind
	Accused types.NodeID
	Shard   types.ShardID // shard at which the conflict was observed
	View    types.View
	Seq     types.SeqNum
	First   Msg
	Second  Msg // zero for single-message kinds (unjustified NewView)
	// Transferable reports whether both offending messages carry Ed25519
	// signatures, making the record verifiable by any third party. MAC'd
	// pairs (equivocation) and unauthenticated client requests are not.
	Transferable bool
}

// Key is the deduplication identity of a record: one logical offense is
// recorded once no matter how many retransmissions re-detect it.
func (r *Record) Key() string {
	return fmt.Sprintf("%d|%v|%d|%d|%d|%x|%x",
		r.Kind, r.Accused, r.Shard, r.View, r.Seq, r.First.Digest[:8], r.Second.Digest[:8])
}

func (r *Record) String() string {
	return fmt.Sprintf("%s: accused %v at shard %d view %d seq %d (transferable=%v)",
		r.Kind, r.Accused, r.Shard, r.View, r.Seq, r.Transferable)
}

// Reverify re-checks the authenticators of both offending messages with a:
// signatures for transferable records, pairwise MACs for recorder-local
// ones. A third party can Reverify transferable records with any
// Authenticator sharing the cluster's public keys; recorder-local records
// verify only with the recording replica's own key ring.
func (r *Record) Reverify(a crypto.Authenticator) error {
	check := func(m Msg) error {
		if m.IsZero() {
			return nil
		}
		if len(m.Sig) > 0 {
			return a.Verify(m.From, m.sigBytes(), m.Sig)
		}
		if len(m.MAC) > 0 {
			return a.VerifyMAC(m.From, m.sigBytes(), m.MAC)
		}
		return nil // unauthenticated (client request): nothing to check
	}
	if err := check(r.First); err != nil {
		return fmt.Errorf("evidence %s first message: %w", r.Kind, err)
	}
	if err := check(r.Second); err != nil {
		return fmt.Errorf("evidence %s second message: %w", r.Kind, err)
	}
	return nil
}

// Log is one replica's evidence log. Records are deduplicated by Key and
// kept in append order; when backed by a WAL they survive restarts with
// the same framing, checksumming, and torn-tail repair as the consensus
// log. The zero value is unusable — construct with NewMemory or Open.
type Log struct {
	mu   sync.Mutex
	recs []Record
	seen map[string]struct{}
	w    *wal.WAL
}

// NewMemory returns an evidence log with no durable backing.
func NewMemory() *Log {
	return &Log{seen: make(map[string]struct{})}
}

// Open returns an evidence log backed by its own WAL under dir, replaying
// any records a previous incarnation persisted.
func Open(fs wal.FS, dir string) (*Log, error) {
	w, recovered, err := wal.Open(fs, dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("evidence: open wal: %w", err)
	}
	l := &Log{seen: make(map[string]struct{}), w: w}
	for _, wr := range recovered {
		if wr.Kind != wal.KindEvidence {
			continue
		}
		if rec, ok := decode(wr.Payload); ok {
			l.add(rec, false)
		}
	}
	return l, nil
}

// Add records r if its Key has not been seen; it reports whether the
// record is new. WAL-backed logs persist before acknowledging.
func (l *Log) Add(r Record) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.add(r, true)
}

func (l *Log) add(r Record, persist bool) bool {
	k := r.Key()
	if _, dup := l.seen[k]; dup {
		return false
	}
	l.seen[k] = struct{}{}
	l.recs = append(l.recs, r)
	if persist && l.w != nil {
		if _, err := l.w.Append(wal.EvidenceRecord(encode(&r))); err == nil {
			l.w.Sync()
		}
	}
	return true
}

// Records returns a copy of the log in append order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...)
}

// Len reports the number of distinct records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Accused returns the distinct accused nodes in canonical order.
func (l *Log) Accused() []types.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	set := make(map[types.NodeID]struct{}, len(l.recs))
	for i := range l.recs {
		set[l.recs[i].Accused] = struct{}{}
	}
	out := make([]types.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Summary renders a per-kind, per-accused count — the shutdown report
// format ringbft-node prints.
func (l *Log) Summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return "evidence: none"
	}
	counts := make(map[string]int)
	for i := range l.recs {
		counts[fmt.Sprintf("%s against %v", l.recs[i].Kind, l.recs[i].Accused)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "evidence: %d record(s)", len(l.recs))
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %d× %s", counts[k], k)
	}
	return b.String()
}

// Close releases the durable backing, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	return l.w.Close()
}

// ---- persistence codec -------------------------------------------------
//
// Written with types' append helpers and read through types' cursor, like
// the WAL record that carries it: fixed-width big-endian integers,
// length-prefixed byte strings. The payload travels inside a checksummed
// WAL frame, so the codec only needs structural bounds checks, not its own
// integrity layer.

func appendMsg(dst []byte, m *Msg) []byte {
	dst = types.AppendNodeID(dst, m.From)
	dst = append(dst, byte(m.Type))
	dst = types.AppendU64(dst, uint64(m.Shard))
	dst = types.AppendU64(dst, uint64(m.View))
	dst = types.AppendU64(dst, uint64(m.Seq))
	dst = append(dst, m.Digest[:]...)
	dst = types.AppendBytes(dst, m.Sig)
	return types.AppendBytes(dst, m.MAC)
}

func encode(r *Record) []byte {
	dst := []byte{byte(r.Kind)}
	dst = types.AppendNodeID(dst, r.Accused)
	dst = types.AppendU64(dst, uint64(r.Shard))
	dst = types.AppendU64(dst, uint64(r.View))
	dst = types.AppendU64(dst, uint64(r.Seq))
	dst = types.AppendBool(dst, r.Transferable)
	dst = appendMsg(dst, &r.First)
	return appendMsg(dst, &r.Second)
}

func readMsg(r *types.Reader) (m Msg) {
	m.From = r.NodeID()
	m.Type = types.MsgType(r.U8())
	m.Shard = types.ShardID(r.U64())
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Digest = r.Digest()
	m.Sig = r.Bytes()
	m.MAC = r.Bytes()
	return
}

func decode(buf []byte) (Record, bool) {
	r := types.NewReader(buf)
	var rec Record
	rec.Kind = Kind(r.U8())
	rec.Accused = r.NodeID()
	rec.Shard = types.ShardID(r.U64())
	rec.View = types.View(r.U64())
	rec.Seq = types.SeqNum(r.U64())
	rec.Transferable = r.Bool()
	rec.First = readMsg(r)
	rec.Second = readMsg(r)
	if r.Done() != nil {
		return Record{}, false
	}
	return rec, true
}
