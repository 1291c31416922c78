// Package crypto provides the authenticated-communication primitives of
// Section 3: pairwise HMAC-SHA256 message authentication codes (cheap,
// symmetric, no non-repudiation) and Ed25519 digital signatures
// (non-repudiation, so a Forward message can carry transferable proof that
// nf replicas committed), plus SHA-256 digests and Merkle roots for the
// ledger.
//
// A message's MAC field holds one pairwise tag for its receiver — every
// MAC'd intra-shard phase — or, on RingBFT's Forward and Execute copies, a
// tag vector with one MACSize entry per replica of the next shard, in index
// order, of which each receiver checks its own. Signatures are spent where
// a proof must travel: commit certificates, checkpoints, view changes, and
// the Forward signature kept for conflicting-Forward evidence.
package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	mrand "math/rand"
	"slices"
	"sync"

	"ringbft/internal/types"
)

// ErrBadMAC is returned when a MAC fails verification.
var ErrBadMAC = errors.New("crypto: MAC verification failed")

// ErrBadSignature is returned when a digital signature fails verification.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// MACSize is the size in bytes of a truncated HMAC-SHA256 tag.
const MACSize = 16

// Authenticator authenticates outbound messages and verifies inbound ones on
// behalf of one node. Implementations must be safe for concurrent use.
type Authenticator interface {
	// MAC computes the pairwise MAC tag for msg bytes sent to peer.
	MAC(peer types.NodeID, msg []byte) []byte
	// VerifyMAC checks a tag produced by peer for msg bytes sent to us.
	VerifyMAC(peer types.NodeID, msg, tag []byte) error
	// Sign produces this node's digital signature over msg.
	Sign(msg []byte) []byte
	// Verify checks signer's digital signature over msg.
	Verify(signer types.NodeID, msg, sig []byte) error
}

// KeyRing holds one node's secret material: a master MAC secret shared
// pairwise (derived per peer pair), its Ed25519 private key, and the public
// keys of every other node. A deployment constructs all key rings from a
// single Keygen so all nodes agree on public keys and pairwise secrets.
//
// The pubs map is shared by every KeyRing of one Keygen and is immutable
// once the first Ring is handed out; macStates caches per-peer HMAC key
// schedules so the pairwise key derivation and the HMAC ipad/opad setup are
// paid once per peer, not on every message.
type KeyRing struct {
	self    types.NodeID
	macRoot []byte // master secret; pairwise keys derived as HMAC(root, pair)
	priv    ed25519.PrivateKey
	pubs    map[types.NodeID]ed25519.PublicKey

	// macStates maps peer -> *macState. Only registered nodes (present in
	// pubs) are cached so transient client endpoints cannot grow the map
	// without bound on a long-lived replica.
	macStates sync.Map
}

var _ Authenticator = (*KeyRing)(nil)

// Keygen deterministically generates key material for a set of nodes. The
// rand seed makes clusters reproducible in tests and benchmarks; Byzantine
// replicas cannot impersonate non-faulty ones because each node's private
// key never leaves its KeyRing.
type Keygen struct {
	macRoot []byte
	privs   map[types.NodeID]ed25519.PrivateKey
	pubs    map[types.NodeID]ed25519.PublicKey
	sealed  bool // set by Ring: pubs is now shared and must not change
}

// NewKeygen creates a key generator seeded by seed.
func NewKeygen(seed int64) *Keygen {
	rng := mrand.New(mrand.NewSource(seed))
	root := make([]byte, 32)
	rng.Read(root)
	return &Keygen{
		macRoot: root,
		privs:   make(map[types.NodeID]ed25519.PrivateKey),
		pubs:    make(map[types.NodeID]ed25519.PublicKey),
	}
}

// Register creates (or returns existing) key material for node id. All
// registrations must happen before the first Ring call: rings share the
// public-key map, so growing it afterwards would race with readers.
func (g *Keygen) Register(id types.NodeID) {
	if _, ok := g.privs[id]; ok {
		return
	}
	if g.sealed {
		panic("crypto: Register after Ring — register every node before handing out key rings")
	}
	idBytes := types.SigBytesArray(0, id.Shard, 0, 0, types.Digest{}, id)
	seed := sha256.Sum256(append(append([]byte("ed25519-seed"), g.macRoot...), idBytes[:]...))
	priv := ed25519.NewKeyFromSeed(seed[:])
	g.privs[id] = priv
	g.pubs[id] = priv.Public().(ed25519.PublicKey)
}

// Ring returns the KeyRing for a previously Registered node. Every ring
// shares one immutable public-key map — copying it per ring would cost
// O(n²) memory across a cluster — so Ring seals the Keygen against further
// Register calls.
func (g *Keygen) Ring(id types.NodeID) (*KeyRing, error) {
	priv, ok := g.privs[id]
	if !ok {
		return nil, fmt.Errorf("crypto: node %v not registered", id)
	}
	g.sealed = true
	return &KeyRing{self: id, macRoot: g.macRoot, priv: priv, pubs: g.pubs}, nil
}

// pairKey derives the symmetric key shared by nodes a and b. The derivation
// is symmetric in (a, b) so both ends compute the same key.
func (r *KeyRing) pairKey(a, b types.NodeID) []byte {
	lo, hi := a, b
	if nodeLess(b, a) {
		lo, hi = b, a
	}
	mac := hmac.New(sha256.New, r.macRoot)
	mac.Write(nodeBytes(lo))
	mac.Write(nodeBytes(hi))
	return mac.Sum(nil)
}

func nodeBytes(n types.NodeID) []byte {
	var b [17]byte
	b[0] = byte(n.Kind)
	binary.BigEndian.PutUint64(b[1:9], uint64(n.Shard))
	binary.BigEndian.PutUint64(b[9:17], uint64(n.Index))
	return b[:]
}

func nodeLess(a, b types.NodeID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Index < b.Index
}

// macState is the precomputed HMAC-SHA256 key schedule for one pairwise
// channel: the SHA-256 states after absorbing key⊕ipad and key⊕opad, in
// their marshaled (resumable) form. Restoring these states replaces the two
// full HMAC setups the naive path pays per message.
type macState struct {
	ipad, opad []byte
}

// newMACState builds the key schedule for a (≤ block size) HMAC key,
// following RFC 2104: zero-pad the key to the 64-byte SHA-256 block, XOR
// with the ipad/opad constants, and absorb one block into each hash.
func newMACState(key []byte) *macState {
	if len(key) > sha256.BlockSize {
		panic("crypto: MAC key longer than hash block size")
	}
	var pad [sha256.BlockSize]byte
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= 0x36
	}
	inner := sha256.New()
	inner.Write(pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	outer := sha256.New()
	outer.Write(pad[:])
	im, err := inner.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("crypto: sha256 state not marshalable: " + err.Error())
	}
	om, err := outer.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("crypto: sha256 state not marshalable: " + err.Error())
	}
	return &macState{ipad: im, opad: om}
}

// macScratch is the pooled working set of one MAC computation: a resumable
// SHA-256 state plus sum buffers, so the hot path allocates nothing beyond
// the returned tag.
type macScratch struct {
	h     hash.Hash
	inner [sha256.Size]byte
	outer [sha256.Size]byte
}

var macPool = sync.Pool{New: func() any { return &macScratch{h: sha256.New()} }}

// macState returns the cached key schedule for the channel to peer,
// deriving and caching it on first use. Only registered peers are cached;
// transient endpoints (clients) get a throwaway schedule so a long-lived
// replica's cache stays bounded by the cluster size.
func (r *KeyRing) macState(peer types.NodeID) *macState {
	if st, ok := r.macStates.Load(peer); ok {
		return st.(*macState)
	}
	st := newMACState(r.pairKey(r.self, peer))
	if _, registered := r.pubs[peer]; !registered {
		return st
	}
	actual, _ := r.macStates.LoadOrStore(peer, st)
	return actual.(*macState)
}

// macSum computes the full HMAC-SHA256 of msg for the channel to peer into
// s.outer and returns it. Zero heap allocation.
func (r *KeyRing) macSum(s *macScratch, peer types.NodeID, msg []byte) []byte {
	st := r.macState(peer)
	u := s.h.(encoding.BinaryUnmarshaler)
	if err := u.UnmarshalBinary(st.ipad); err != nil {
		panic("crypto: sha256 state not restorable: " + err.Error())
	}
	s.h.Write(msg)
	inner := s.h.Sum(s.inner[:0])
	if err := u.UnmarshalBinary(st.opad); err != nil {
		panic("crypto: sha256 state not restorable: " + err.Error())
	}
	s.h.Write(inner)
	return s.h.Sum(s.outer[:0])
}

// MAC computes the truncated HMAC-SHA256 tag over msg for the channel
// between this node and peer.
func (r *KeyRing) MAC(peer types.NodeID, msg []byte) []byte {
	return r.AppendMAC(make([]byte, 0, MACSize), peer, msg)
}

// AppendMAC appends the truncated pairwise tag for msg to dst and returns
// the extended slice; with a preallocated dst the computation is
// allocation-free.
func (r *KeyRing) AppendMAC(dst []byte, peer types.NodeID, msg []byte) []byte {
	s := macPool.Get().(*macScratch)
	sum := r.macSum(s, peer, msg)
	dst = append(dst, sum[:MACSize]...)
	macPool.Put(s)
	return dst
}

// VerifyMAC checks a pairwise MAC tag from peer.
func (r *KeyRing) VerifyMAC(peer types.NodeID, msg, tag []byte) error {
	s := macPool.Get().(*macScratch)
	sum := r.macSum(s, peer, msg)
	ok := hmac.Equal(sum[:MACSize], tag)
	macPool.Put(s)
	if !ok {
		return ErrBadMAC
	}
	return nil
}

// Sign signs msg with this node's Ed25519 private key.
func (r *KeyRing) Sign(msg []byte) []byte {
	return ed25519.Sign(r.priv, msg)
}

// Verify checks signer's Ed25519 signature over msg.
func (r *KeyRing) Verify(signer types.NodeID, msg, sig []byte) error {
	pub, ok := r.pubs[signer]
	if !ok {
		return fmt.Errorf("crypto: unknown signer %v: %w", signer, ErrBadSignature)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// SignMessage signs m's canonical bytes with a, building them in a stack
// buffer so the caller pays no allocation beyond the signature itself.
func SignMessage(a Authenticator, m *types.Message) []byte {
	var sb [types.SigBytesLen]byte
	return a.Sign(m.AppendSigBytes(sb[:0]))
}

// VerifyMessageSig checks m's signature over its canonical bytes.
func VerifyMessageSig(a Authenticator, m *types.Message) error {
	var sb [types.SigBytesLen]byte
	return a.Verify(m.From, m.AppendSigBytes(sb[:0]), m.Sig)
}

// VerifyResent checks m's signature like VerifyMessageSig, unless held — a
// message from the same sender whose signature this replica already
// verified — carries the same canonical bytes and the same signature: then
// the two are compared instead, since Ed25519 answers the same bytes the
// same way. Any byte that differs goes to the real check. held may be nil.
func VerifyResent(a Authenticator, m, held *types.Message) error {
	var x, y [types.SigBytesLen]byte
	if held != nil && bytes.Equal(held.Sig, m.Sig) &&
		bytes.Equal(held.AppendSigBytes(x[:0]), m.AppendSigBytes(y[:0])) {
		return nil
	}
	return VerifyMessageSig(a, m)
}

// VerifyQuorum checks the signatures of entries and returns how many are
// valid, early-exiting at quorum. held lists signed tuples the caller
// already verified: an entry equal to one of them is compared, not
// verified, and every entry that verifies is appended to held, which is
// returned. Callers are responsible for structural checks (tuple
// consistency, sender dedup, membership); this routine only spends the
// Ed25519 work.
func VerifyQuorum(a Authenticator, entries []*types.Signed, quorum int, held []types.Signed) (int, []types.Signed) {
	valid := 0
	var sb [types.SigBytesLen]byte
	for _, e := range entries {
		switch {
		case slices.ContainsFunc(held, e.Equal):
		case a.Verify(e.From, e.AppendSigBytes(sb[:0]), e.Sig) == nil:
			held = append(held, *e)
		default:
			continue
		}
		if valid++; valid >= quorum {
			break
		}
	}
	return valid, held
}

// MACMessage computes the pairwise tag over m's canonical bytes for the
// channel to peer.
func MACMessage(a Authenticator, peer types.NodeID, m *types.Message) []byte {
	var sb [types.SigBytesLen]byte
	return a.MAC(peer, m.AppendSigBytes(sb[:0]))
}

// VerifyMessageMAC checks the pairwise tag m carries from its sender.
func VerifyMessageMAC(a Authenticator, m *types.Message) error {
	var sb [types.SigBytesLen]byte
	return a.VerifyMAC(m.From, m.AppendSigBytes(sb[:0]), m.MAC)
}

// NopAuth is an Authenticator that performs no cryptography. It exists for
// ablation benchmarks (DESIGN.md §5, crypto-mix ablation) and for tests that
// isolate protocol logic from crypto cost. Never use it as a security
// mechanism.
type NopAuth struct{}

var _ Authenticator = NopAuth{}

// MAC returns an empty tag.
func (NopAuth) MAC(types.NodeID, []byte) []byte { return nil }

// VerifyMAC accepts everything.
func (NopAuth) VerifyMAC(types.NodeID, []byte, []byte) error { return nil }

// Sign returns an empty signature.
func (NopAuth) Sign([]byte) []byte { return nil }

// Verify accepts everything.
func (NopAuth) Verify(types.NodeID, []byte, []byte) error { return nil }
