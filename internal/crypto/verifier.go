package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ringbft/internal/types"
)

// DefaultMemoSize bounds the verified-signature memo of a Verifier. A
// signature is re-presented a handful of times per replica (a straggler
// re-send, the same commit certificate inside every Forward copy, a
// retransmission), all within a short window, so a few thousand entries
// cover the working set.
const DefaultMemoSize = 4096

// Verifier wraps an Authenticator with the crypto fast path for signature
// checking (Section 3: authentication dominates replica CPU): a bounded FIFO
// memo of signatures that already verified, keyed on (signer, message bytes,
// signature), so an Ed25519 signature is verified at most once per replica
// no matter how many messages or certificates carry it.
//
// Accept/reject decisions are identical to calling the wrapped
// Authenticator every time: only successes are remembered and the key
// covers every input of the check, so a tampered re-delivery can never
// alias a remembered success. One Verifier per replica, never shared across
// replicas. Safe for concurrent use.
type Verifier struct {
	Authenticator
	// size is the memo capacity. It is written under mu; Verify's lock-free
	// read only decides whether to consult the memo at all.
	size atomic.Int64

	mu   sync.Mutex
	memo map[memoKey]struct{}
	fifo []memoKey // eviction ring, same capacity as memo
	next int
	hits uint64
}

// memoKey is SHA-256 over (signer, len(msg), msg, sig): collision-resistant,
// so two checks share a key only if every input is identical.
type memoKey [sha256.Size]byte

// NewVerifier wraps auth with the default verified-signature memo.
func NewVerifier(auth Authenticator) *Verifier {
	v := &Verifier{Authenticator: auth}
	// Verification is free under NopAuth (crypto ablations): hashing for the
	// memo would only add cost, so the memo stays off.
	if _, nop := auth.(NopAuth); !nop {
		v.size.Store(DefaultMemoSize)
	}
	return v
}

// SetMemoSize resizes (and clears) the verified-signature memo; 0 disables
// it. Storage is allocated on the first insert, so replicas that never verify
// a signature pay nothing for the capacity.
func (v *Verifier) SetMemoSize(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.size.Store(int64(n))
	v.next = 0
	v.memo, v.fifo = nil, nil
}

// MemoHits returns the number of verifications served from the memo (for
// tests and instrumentation).
func (v *Verifier) MemoHits() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hits
}

// Verify checks signer's signature over msg, spending the wrapped
// Authenticator's work only the first time this exact (signer, msg, sig)
// triple verifies. Failures are never remembered: a bad signature is simply
// re-checked if it shows up again.
func (v *Verifier) Verify(signer types.NodeID, msg, sig []byte) error {
	if v.size.Load() <= 0 {
		return v.Authenticator.Verify(signer, msg, sig)
	}
	key := newMemoKey(signer, msg, sig)
	v.mu.Lock()
	_, ok := v.memo[key]
	if ok {
		v.hits++
	}
	v.mu.Unlock()
	if ok {
		return nil
	}
	if err := v.Authenticator.Verify(signer, msg, sig); err != nil {
		return err
	}
	v.remember(key)
	return nil
}

func newMemoKey(signer types.NodeID, msg, sig []byte) memoKey {
	s := macPool.Get().(*macScratch)
	h := s.h
	h.Reset()
	// The header lives in the pooled scratch: a stack buffer would escape
	// through the hash.Hash interface and cost an allocation per check.
	hdr := s.inner[:25]
	hdr[0] = byte(signer.Kind)
	binary.BigEndian.PutUint64(hdr[1:9], uint64(signer.Shard))
	binary.BigEndian.PutUint64(hdr[9:17], uint64(signer.Index))
	binary.BigEndian.PutUint64(hdr[17:25], uint64(len(msg)))
	h.Write(hdr)
	h.Write(msg)
	h.Write(sig)
	var key memoKey
	copy(key[:], h.Sum(s.outer[:0]))
	macPool.Put(s)
	return key
}

// remember records a successful verification, evicting the oldest entry at
// capacity.
func (v *Verifier) remember(key memoKey) {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Capacity is re-read under the lock: a concurrent SetMemoSize cleared
	// the table, and the ring below must match the capacity it was made for.
	size := int(v.size.Load())
	if size <= 0 {
		return
	}
	if v.memo == nil {
		v.memo = make(map[memoKey]struct{}, size)
		v.fifo = make([]memoKey, 0, size)
	}
	if _, dup := v.memo[key]; dup {
		return
	}
	if len(v.fifo) < size {
		v.fifo = append(v.fifo, key)
	} else {
		delete(v.memo, v.fifo[v.next])
		v.fifo[v.next] = key
		v.next = (v.next + 1) % size
	}
	v.memo[key] = struct{}{}
}

// VerifyQuorum checks the signatures of entries and returns how many are
// valid, early-exiting at quorum. Callers are responsible for structural
// checks (tuple consistency, sender dedup, membership); this routine only
// spends the Ed25519 work.
func (v *Verifier) VerifyQuorum(entries []*types.Signed, quorum int) int {
	valid := 0
	var sb [types.SigBytesLen]byte
	for _, e := range entries {
		if v.Verify(e.From, e.AppendSigBytes(sb[:0]), e.Sig) == nil {
			valid++
			if valid >= quorum {
				break
			}
		}
	}
	return valid
}
