package types

import (
	"bytes"
	"encoding/binary"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Message types used by RingBFT, the intra-shard PBFT engine, and the
// baseline protocols. The byte sizes in comments are the message sizes the
// paper reports for its standard configuration (Section 8) and are used by
// the simulator's bandwidth accounting.
const (
	MsgClientRequest MsgType = iota // client -> primary: ⟨Tℑ⟩c
	MsgPrePrepare                   // 5408 B
	MsgPrepare                      // 216 B
	MsgCommit                       // 269 B
	MsgCheckpoint                   // 164 B
	MsgViewChange
	MsgNewView
	MsgForward    // 6147 B: cst + commit certificate, shard -> next shard
	MsgExecute    // 1732 B: Δ + Σℑ, second rotation
	MsgRemoteView // remote view-change request (Fig 6)
	MsgResponse   // replica -> client

	// State transfer: a replica too far behind a stable checkpoint — a
	// restarted replica with a gap, or one whose data dir was wiped — asks
	// its shard peers for a certified checkpoint instead of stalling.
	MsgStateRequest  // replica -> shard peers: need a checkpoint at or above Seq
	MsgStateSnapshot // peer -> replica: checkpoint (Seq, Digest), its certificate and its content

	// AHL (reference committee + 2PC)
	MsgAHLPrepare  // committee -> shard: prepare(T) (2PC phase 1)
	MsgAHLVote     // shard -> committee: vote commit/abort
	MsgAHLDecision // committee -> shard: global decision

	// Sharper (initiator primary, global all-to-all)
	MsgSharperPropose // initiator primary -> involved primaries
	MsgSharperPrepare // cross-shard all-to-all prepare
	MsgSharperCommit  // cross-shard all-to-all commit

	// Single-primary baselines (Figure 1)
	MsgZyzOrderReq    // Zyzzyva: primary order request
	MsgZyzSpecResp    // Zyzzyva: speculative response to client
	MsgZyzCommitCert  // Zyzzyva: client-assembled commit certificate
	MsgZyzLocalCommit // Zyzzyva: replica ack of a commit certificate
	MsgSbftPrepare    // SBFT: replica -> collector partial signature
	MsgSbftFullPrep   // SBFT: collector -> replicas aggregated prepare
	MsgSbftSignShare  // SBFT: replica -> collector commit share
	MsgSbftFullCommit // SBFT: collector -> replicas aggregated commit
	MsgHSPropose      // HotStuff: leader proposal (generic phase)
	MsgHSVote         // HotStuff: replica vote -> leader
	MsgPoEPropose     // PoE: primary propose
	MsgPoESupport     // PoE: support (prepare) message
	MsgPoECertify     // PoE: certify message

	msgTypeCount
)

var msgTypeNames = [...]string{
	"ClientRequest", "PrePrepare", "Prepare", "Commit", "Checkpoint",
	"ViewChange", "NewView", "Forward", "Execute", "RemoteView", "Response",
	"StateRequest", "StateSnapshot",
	"AHLPrepare", "AHLVote", "AHLDecision",
	"SharperPropose", "SharperPrepare", "SharperCommit",
	"ZyzOrderReq", "ZyzSpecResp", "ZyzCommitCert", "ZyzLocalCommit",
	"SbftPrepare", "SbftFullPrep", "SbftSignShare", "SbftFullCommit",
	"HSPropose", "HSVote", "PoEPropose", "PoESupport", "PoECertify",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return "Invalid"
}

// Message is the single wire-message struct shared by every protocol.
// A union struct (rather than one type per message) keeps the simulated
// network, the wire codec (codec.go), and the authenticators simple; unused
// fields are nil/zero, cost nothing in-process and a count or presence byte
// each on the wire. A field added here or to a nested struct must be added
// to AppendMessage and DecodeMessage too; TestCodecEveryField fails until
// it is.
type Message struct {
	Type   MsgType
	From   NodeID
	View   View
	Seq    SeqNum
	Shard  ShardID // shard whose log (View,Seq) refers to
	Digest Digest

	// Payloads.
	Batch     *Batch     // PrePrepare, Forward, ClientRequest, SharperPropose, ...
	WriteSets []WriteSet // Execute: accumulated Σℑ of shards earlier in ring order
	Cert      []Signed   // Forward: DS commit certificate (nf signed Commits)
	Results   []Value    // Response: per-txn results
	Decision  bool       // AHLDecision / AHLVote: commit (true) or abort
	Instance  int        // RCC: concurrent instance id; Zyzzyva/HotStuff phase reuse

	// State is the state-transfer payload of MsgStateSnapshot: the
	// responder's newest certified checkpoint, with its certificate and the
	// protocol's content (see StatePayload).
	State *StatePayload

	// View-change payloads (PBFT view change; Castro & Liskov).
	StableSeq SeqNum          // last stable checkpoint sequence
	Prepared  []PreparedProof // P set: proofs of prepared batches after StableSeq
	ViewMsgs  []Signed        // NewView: nf ViewChange messages justifying the view

	// Authenticators filled by the node runtime.
	MAC []byte // pairwise HMAC tag, or a Forward/Execute ring tag vector (one tag per next-shard replica); no non-repudiation
	Sig []byte // Ed25519 signature (non-repudiation)
}

// Signed is a compact, transferable proof that node From authenticated the
// canonical bytes of a (Type, Shard, View, Seq, Digest) tuple with a digital
// signature. Sets of nf such proofs form the commit certificates carried by
// Forward messages (Fig 5 line 16) and view-change justifications.
type Signed struct {
	From   NodeID
	Type   MsgType
	Shard  ShardID
	View   View
	Seq    SeqNum
	Digest Digest
	Sig    []byte
}

// ZeroedCert returns a copy of cert whose signatures are all zero: the
// right shape and signers, proving nothing. It is the garbage certificate
// the Byzantine fault injector forges and tests present.
func ZeroedCert(cert []Signed) []Signed {
	out := append([]Signed(nil), cert...)
	for i := range out {
		out[i].Sig = make([]byte, len(out[i].Sig))
	}
	return out
}

// Pair is one key-value record, as shipped by snapshots and state transfer.
type Pair struct {
	K Key
	V Value
}

// StatePayload is the peer state-transfer payload for stable checkpoint
// Seq, one content for every shard replica: the canonical key-value state
// as of Seq, the state obtained by executing exactly the blocks with
// sequence number <= Seq, which every honest replica agrees on even though
// their live stores may interleave later writes differently. The
// checkpoint digest is H(PrefixDigest || StateDigest), and StateDigest is
// the SHA-256 of Pairs in sorted key order, so nothing a receiver installs
// is taken on the responder's word. Cert is always set: nf signed
// Checkpoint messages over the carrying message's (Seq, Digest), which a
// requester that did not see the checkpoint stabilize verifies.
type StatePayload struct {
	Seq          SeqNum
	PrefixDigest Digest   // rolling fold of the committed batch digests at Seq
	StateDigest  Digest   // SHA-256 over Pairs in ascending key order
	Pairs        []Pair   // canonical records, ascending key order
	Cert         []Signed // nf signed Checkpoint messages over (Seq, Digest)
}

// PreparedProof is an element of a view-change message's P set: a batch that
// prepared at (View, Seq) with its pre-prepare digest. The batch itself rides
// along so the new primary can re-propose it.
type PreparedProof struct {
	View   View
	Seq    SeqNum
	Digest Digest
	Batch  *Batch
	// Justification carries the certificate that entitles the batch to be
	// proposed at this shard when proposals are certificate-gated: for a
	// RingBFT non-initiator shard, the previous shard's nf-signed commit
	// certificate (as carried by Forward); for an AHL data shard, the
	// committee's AHLPrepare certificate. Empty for batches that need no
	// justification (single-shard, initiator-shard, no-op fillers). A
	// NewView receiver that has not itself accepted the certificate
	// verifies this instead — without it a Byzantine new primary could
	// inject an unjustified batch through the re-proposal path that the
	// Justify gate blocks on the normal path.
	Justification []Signed
}

// SigBytesLen is the exact length of the canonical authenticated byte string:
// type (1) + shard/view/seq (3×8) + digest (32) + sender kind/shard/index
// (1+8+8).
const SigBytesLen = 1 + 3*8 + 32 + 1 + 2*8

// AppendSigBytes appends the canonical byte string that is MAC'd or signed
// for a message — type, shard, view, sequence, digest, and sender — to dst
// and returns the extended slice. Signing a fixed canonical tuple (rather
// than a full serialization) mirrors PBFT practice and keeps signatures
// verifiable independent of codec details. Callers on hot paths pass a
// stack or reused buffer with capacity SigBytesLen to avoid allocation.
func AppendSigBytes(dst []byte, t MsgType, shard ShardID, v View, s SeqNum, d Digest, from NodeID) []byte {
	var buf [SigBytesLen]byte
	buf[0] = byte(t)
	binary.BigEndian.PutUint64(buf[1:], uint64(shard))
	binary.BigEndian.PutUint64(buf[9:], uint64(v))
	binary.BigEndian.PutUint64(buf[17:], uint64(s))
	copy(buf[25:57], d[:])
	buf[57] = byte(from.Kind)
	binary.BigEndian.PutUint64(buf[58:], uint64(from.Shard))
	binary.BigEndian.PutUint64(buf[66:], uint64(from.Index))
	return append(dst, buf[:]...)
}

// SigBytesArray returns the canonical authenticated bytes as a fixed-size
// array, so callers that immediately pass a slice of it avoid any heap
// traffic the compiler cannot elide.
func SigBytesArray(t MsgType, shard ShardID, v View, s SeqNum, d Digest, from NodeID) [SigBytesLen]byte {
	var buf [SigBytesLen]byte
	AppendSigBytes(buf[:0], t, shard, v, s, d, from)
	return buf
}

// SigBytes returns the canonical byte string that is MAC'd or signed for a
// message (see AppendSigBytes).
func SigBytes(t MsgType, shard ShardID, v View, s SeqNum, d Digest, from NodeID) []byte {
	return AppendSigBytes(make([]byte, 0, SigBytesLen), t, shard, v, s, d, from)
}

// SigBytes returns the canonical authenticated bytes of m.
func (m *Message) SigBytes() []byte {
	return SigBytes(m.Type, m.Shard, m.View, m.Seq, m.Digest, m.From)
}

// AppendSigBytes appends m's canonical authenticated bytes to dst.
func (m *Message) AppendSigBytes(dst []byte) []byte {
	return AppendSigBytes(dst, m.Type, m.Shard, m.View, m.Seq, m.Digest, m.From)
}

// Equal reports whether s and o are byte for byte the same proof: the same
// signed tuple and the same signature.
func (s *Signed) Equal(o Signed) bool {
	return s.From == o.From && s.Type == o.Type && s.Shard == o.Shard &&
		s.View == o.View && s.Seq == o.Seq && s.Digest == o.Digest &&
		bytes.Equal(s.Sig, o.Sig)
}

// SigBytes returns the canonical bytes the signature in s covers.
func (s *Signed) SigBytes() []byte {
	return SigBytes(s.Type, s.Shard, s.View, s.Seq, s.Digest, s.From)
}

// AppendSigBytes appends the canonical bytes the signature in s covers to dst.
func (s *Signed) AppendSigBytes(dst []byte) []byte {
	return AppendSigBytes(dst, s.Type, s.Shard, s.View, s.Seq, s.Digest, s.From)
}

// Paper-reported message sizes in bytes at batch size 100 (Section 8,
// "Standard Settings"). Batches scale the body linearly around these
// calibration points; fixed header overhead is kept.
const (
	sizePrePrepare = 5408
	sizePrepare    = 216
	sizeCommit     = 269
	sizeForward    = 6147
	sizeCheckpoint = 164
	sizeExecute    = 1732
	sizeHeader     = 96
	calibBatch     = 100
)

// WireSize estimates the serialized size of m in bytes for the simulator's
// bandwidth/byte accounting, anchored to the message sizes the paper reports.
func (m *Message) WireSize() int {
	nTxns := 0
	if m.Batch != nil {
		nTxns = len(m.Batch.Txns)
	}
	scale := func(calibrated int) int {
		body := calibrated - sizeHeader
		if body < 0 {
			body = calibrated
		}
		return sizeHeader + body*max(nTxns, 1)/calibBatch
	}
	switch m.Type {
	case MsgClientRequest:
		return scale(sizePrePrepare - 300)
	case MsgPrePrepare, MsgSharperPropose, MsgZyzOrderReq, MsgHSPropose, MsgPoEPropose, MsgAHLPrepare:
		return scale(sizePrePrepare)
	case MsgPrepare, MsgSbftPrepare, MsgHSVote, MsgPoESupport, MsgAHLVote:
		return sizePrepare
	case MsgCommit, MsgSbftSignShare, MsgPoECertify, MsgZyzLocalCommit, MsgAHLDecision:
		return sizeCommit
	case MsgCheckpoint:
		return sizeCheckpoint
	case MsgForward:
		return scale(sizeForward) + 64*len(m.Cert)
	case MsgExecute:
		ws := 0
		for i := range m.WriteSets {
			ws += 16 * (len(m.WriteSets[i].Keys) + len(m.WriteSets[i].ReadKeys))
		}
		return sizeExecute + ws
	case MsgRemoteView:
		return sizeCommit
	case MsgStateRequest:
		return sizeHeader
	case MsgStateSnapshot:
		n := sizeHeader + 2*32 + 8
		if m.State != nil {
			n += 16 * len(m.State.Pairs)
			n += 64 * len(m.State.Cert)
		}
		return n
	case MsgResponse, MsgZyzSpecResp:
		return sizeHeader + 8*len(m.Results)
	case MsgSharperPrepare, MsgSharperCommit:
		return sizeCommit
	case MsgZyzCommitCert, MsgSbftFullPrep, MsgSbftFullCommit:
		return sizeCommit + 64*len(m.Cert)
	case MsgViewChange:
		n := sizeHeader
		for i := range m.Prepared {
			n += sizePrePrepare + 64*len(m.Prepared[i].Justification)
		}
		return n
	case MsgNewView:
		n := sizeHeader + sizeCommit*len(m.ViewMsgs)
		for i := range m.Prepared {
			n += sizePrePrepare + 64*len(m.Prepared[i].Justification)
		}
		return n
	default:
		return sizeHeader
	}
}
