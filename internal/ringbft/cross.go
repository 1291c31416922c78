package ringbft

import (
	"bytes"
	"crypto/sha256"
	"slices"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/host"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

func sha256Sum(b []byte) types.Digest { return types.Digest(sha256.Sum256(b)) }

// mergeCarried folds the Σ fragments of one Forward/Execute copy into the
// cst's accumulated Σ, one fragment per (shard, kind) slot — kind being the
// read fragment collected at lock time or the write fragment appended at
// execution. Honest fragments for the same slot are identical (their values
// are read under sequence-ordered locks), so the first copy wins.
//
// Merging — rather than adopting the payload of whichever copy tips the f+1
// threshold — is load-bearing: copies from different senders legitimately
// carry different Σ. A replica that learned the batch through local PBFT
// replication because its own first-rotation Forward copy was lost (crash
// and partition windows make this routine) locks and forwards a Σ holding
// only its own read fragment; executing from that copy alone diverges from
// the replicas that executed with the full Σ (found by internal/chaos,
// crash-restart and wipe-rejoin schedules).
func (cs *cstState) mergeCarried(sets []types.WriteSet) {
	for _, ws := range sets {
		read := len(ws.ReadKeys) > 0
		write := len(ws.Keys) > 0
		if !read && !write {
			continue
		}
		dup := false
		for i := range cs.carried {
			have := &cs.carried[i]
			if have.Shard == ws.Shard &&
				(len(have.ReadKeys) > 0) == read && (len(have.Keys) > 0) == write {
				dup = true
				break
			}
		}
		if !dup {
			cs.carried = append(cs.carried, ws)
		}
	}
}

// ringTags returns m's ring tag vector: one pairwise MAC over m's canonical
// bytes for every replica of shard next, in index order. Forward and Execute
// copies carry it in Message.MAC, so the same message serves the lane
// recipient, the peers it relays to, the all-to-all ablation and every
// retransmission, and each receiver authenticates the originating sender
// with its own entry (see verifyRingTag).
func (r *Replica) ringTags(next types.ShardID, m *types.Message) []byte {
	var sb [types.SigBytesLen]byte
	msg := m.AppendSigBytes(sb[:0])
	vec := make([]byte, 0, r.Cfg.ReplicasPerShard*crypto.MACSize)
	for i := 0; i < r.Cfg.ReplicasPerShard; i++ {
		vec = append(vec, r.Auth.MAC(types.ReplicaNode(next, i), msg)...)
	}
	return vec
}

// verifyRingTag checks this replica's entry of m's ring tag vector against
// m's originating sender. That is all counting a sender toward f+1 needs:
// authentication to this replica, not proof to a third party. A relaying
// peer holds no key shared by the sender and this replica, so it can drop
// or replay a copy but not forge or re-attribute one. A vector of the wrong
// length yields a nil tag, which a key ring rejects and NopAuth accepts.
func (r *Replica) verifyRingTag(m *types.Message) error {
	var tag []byte
	if len(m.MAC) == r.Cfg.ReplicasPerShard*crypto.MACSize {
		tag = m.MAC[r.Self.Index*crypto.MACSize : (r.Self.Index+1)*crypto.MACSize]
	}
	var sb [types.SigBytesLen]byte
	return r.Auth.VerifyMAC(m.From, m.AppendSigBytes(sb[:0]), tag)
}

// sendForward implements Fig 5 line 19: after locking, replica r sends a
// Forward — the batch, the nf-signature commit certificate A, and the
// accumulated read sets — to the single replica of the next involved shard
// with the same index (the linear communication primitive). The ring tag
// vector authenticates the copy for counting; the Ed25519 signature is
// checked only if the Forward ever becomes conflicting-Forward evidence.
func (r *Replica) sendForward(cs *cstState) {
	next, _ := cs.batch.NextInRing(r.Shard)
	m := &types.Message{
		Type: types.MsgForward, From: r.Self, Shard: r.Shard,
		Seq: cs.seq, Digest: cs.digest,
		Batch: cs.batch, Cert: cs.cert, WriteSets: cs.carried,
	}
	m.Sig = crypto.SignMessage(r.Auth, m)
	m.MAC = r.ringTags(next, m)
	cs.forwardMsg = m
	cs.forwardSentAt = r.Clock()
	r.Observe(cs.seq, trace.PhaseForward)
	r.sendRing(next, m)
}

// sendRing delivers a cross-shard message under the configured
// communication primitive: one same-index replica (linear, the default) or
// every replica of the next shard (all-to-all ablation).
func (r *Replica) sendRing(next types.ShardID, m *types.Message) {
	if !r.allToAll {
		r.Send(types.ReplicaNode(next, r.Self.Index), m)
		return
	}
	for i := 0; i < r.Cfg.ReplicasPerShard; i++ {
		r.Send(types.ReplicaNode(next, i), m)
	}
}

// onForward handles a Forward from the previous shard in ring order
// (Fig 5 lines 29-39). The first same-index copy is re-shared locally
// (line 30); the message is accepted once f+1 distinct previous-shard
// replicas vouch for it (line 31), which by the linear communication
// primitive guarantees at least one copy originated at a non-faulty sender.
// A copy counts its originating sender once its ring tag verifies, at every
// shard: f+1 tag-authenticated senders, one of them honest, already prove
// the previous shard committed the batch (see ARCHITECTURE.md, counting
// under ring tags). The certificate a copy carries is not verified here:
// every counted sender's certificate is held as a candidate (at most n, by
// the dedup), and provenCert verifies them only where the certificate
// becomes proof for someone else.
func (r *Replica) onForward(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 || !b.IsCrossShard() {
		return
	}
	d := b.Digest()
	if d != m.Digest || !b.Involves(r.Shard) {
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != b.PrevInRing(r.Shard) || m.Shard != m.From.Shard {
		return
	}
	if r.verifyRingTag(m) != nil {
		return
	}
	// The Forward signature alone binds the sender to (seq, digest), and a
	// conflicting claim is indicting whatever certificate it carries.
	r.noteForward(m)
	cs := r.cst(d)
	if cs.batch == nil {
		// Adopt the batch as soon as one authenticated Forward is seen: the
		// remote timer needs it to complain (Fig 6) even before f+1 copies
		// arrive.
		cs.batch = b
	}
	if _, dup := cs.fwdFrom[m.From]; dup {
		// Retransmission of an already-counted copy: the rotation is
		// starving somewhere. Re-share the same-index copy — the one-shot
		// relay happened while peers' copies may have been lost, and a
		// peer short of f+1 senders has no other way to complete its
		// quorum (re-sends are paced by the sender's transmit timer, and
		// only the lane owner re-relays, so there is no amplification).
		// If we already executed, the lost message is our Execute —
		// resend it down the ring.
		if m.From.Index == r.Self.Index {
			r.Relay(m)
		}
		if cs.executed {
			r.sendExecute(cs)
		}
		if cs.fwdCert == nil && !cs.settled && !cs.holdsCand(m.Cert) && r.verifyPrevCert(b, d, m.Cert) {
			// Neither the tag nor the Forward signature covers the
			// certificate, so a faulty relayer can swap it on the copy that
			// got this sender counted. A later copy of the same sender that
			// carries a different certificate is therefore checked now,
			// instead of being lost to the dedup. Copies of one Forward differ
			// only where a relayer or the sender is faulty, so a fault-free
			// run never gets here.
			cs.fwdCert, cs.fwdCands = m.Cert, nil
		}
		return
	}
	cs.fwdFrom[m.From] = struct{}{}
	if cs.fwdCert == nil && !cs.settled {
		cs.fwdCands = append(cs.fwdCands, m.Cert)
	}
	cs.mergeCarried(m.WriteSets)
	if cs.fwdFirst.IsZero() {
		r.armRemote(cs)
	}
	if m.From.Index == r.Self.Index && !cs.fwdRelayed {
		cs.fwdRelayed = true
		r.Relay(m)
	}
	if cs.fwdAccepted || len(cs.fwdFrom) <= r.Cfg.F() {
		return
	}
	cs.fwdAccepted = true
	if r.Obs.Exposed() {
		r.ring.forwardQuorum.Observe(r.Clock().Sub(cs.fwdFirst))
	}
	r.armRemote(cs) // re-anchor the remote timer for rotation 2
	// The Forward quorum is the justification evidence the PBFT engine
	// gates cross-shard proposals on; re-feed any that arrived early.
	r.PBFT.ReplayParked()

	if cs.locked && r.Shard == b.Initiator() {
		// Second rotation (Fig 5 line 32): we are the first shard in ring
		// order, our locks are held, and the Forward has travelled the full
		// ring — every involved shard holds its locks. Execute with the Σ
		// merged from every copy (see mergeCarried). The initiator check is
		// load-bearing: only there does an inbound Forward prove a full
		// rotation. A non-initiator shard can also be locked when the f+1-th
		// Forward copy arrives (commit raced ahead of retransmitted Forwards
		// across a fault window), but its Forwards are first-rotation —
		// executing on one would use a Σ missing every upstream shard's
		// fragments and diverge from the replicas that execute on the
		// second-rotation Execute message (found by internal/chaos,
		// wipe-rejoin schedules).
		r.executeCst(cs)
		return
	}
	// First rotation at a non-initiator shard: the accumulated read sets
	// are already merged into Σ; replicate the batch locally (Fig 5 lines
	// 38-39). If we are already locked, execution still waits for the
	// Execute message carrying the full Σ.
	r.Enqueue(b, d)
}

// provenCert returns the previous shard's commit certificate for cs, proving
// it on first use: the held candidates are verified in arrival order, the
// first that verifies becomes fwdCert, and the candidates are dropped — so a
// second call costs nothing. A candidate that fails is dropped too. Nil
// while no candidate verifies; a sender counted later still adds one. Called
// only where the certificate becomes proof for someone else: a view-change
// or NewView justification, and before this replica complains upstream on a
// first-rotation Forward.
func (r *Replica) provenCert(cs *cstState) []types.Signed {
	for cs.fwdCert == nil && len(cs.fwdCands) > 0 {
		cert := cs.fwdCands[0]
		cs.fwdCands = cs.fwdCands[1:]
		if r.verifyPrevCert(cs.batch, cs.digest, cert) {
			cs.fwdCert, cs.fwdCands = cert, nil
		}
	}
	return cs.fwdCert
}

// settleBelow drops the certificate candidates of the executed csts that
// stable checkpoint seq covers. A view change re-proposes only above the
// highest stable checkpoint among its ViewChanges, and this replica's own
// ViewChange reports seq, so none of these batches is carried by a P-set
// or a NewView again and no certificate for it is ever handed on.
func (r *Replica) settleBelow(seq types.SeqNum) {
	keep := r.unsettled[:0]
	for _, cs := range r.unsettled {
		if cs.seq > seq {
			keep = append(keep, cs)
			continue
		}
		cs.fwdCands, cs.settled = nil, true
	}
	clear(r.unsettled[len(keep):])
	r.unsettled = keep
}

// holdsCand reports whether cert is byte for byte one of cs's candidates.
func (cs *cstState) holdsCand(cert []types.Signed) bool {
	for _, c := range cs.fwdCands {
		if slices.EqualFunc(c, cert, func(a, b types.Signed) bool {
			return a.From == b.From && a.Type == b.Type && a.Shard == b.Shard &&
				a.View == b.View && a.Seq == b.Seq && a.Digest == b.Digest &&
				bytes.Equal(a.Sig, b.Sig)
		}) {
			return true
		}
	}
	return false
}

// verifyPrevCert reports whether cert carries nf valid commit signatures
// over digest d of batch b from the shard before this one in b's ring.
func (r *Replica) verifyPrevCert(b *types.Batch, d types.Digest, cert []types.Signed) bool {
	r.ring.certVerifies.Inc()
	return pbft.VerifyCert(r.Verifier, b.PrevInRing(r.Shard), d, cert, r.Cfg.NF()) == nil
}

// noteForward records conflicting-Forward evidence: the same previous-shard
// replica signing two Forwards for one sequence with different digests. An
// honest sender cannot — its shard committed exactly one batch at that
// sequence — so the signature pair indicts the sender directly and is
// transferable (both halves are Ed25519-signed over the canonical tuple).
// Call only after the message's ring tag verified.
//
// Signatures are checked lazily, only when a copy would become evidence: the
// first Forward per (sender, sequence) is stored unverified, and a stored
// half whose signature turns out bad is replaced by the copy that exposed
// it. The stored half is therefore the first validly signed Forward as soon
// as one has arrived, and the records are the ones a replica verifying
// every copy before noting it would write.
func (r *Replica) noteForward(m *types.Message) {
	key := fwdKey{from: m.From, seq: m.Seq}
	prev, ok := r.fwdSeen.first[key]
	switch {
	case !ok:
		r.fwdSeen.put(key, forwardHalf(m))
	case prev.Digest == m.Digest:
		// An honest sender signs each Forward once, so a second signature
		// over the same tuple only comes from a faulty one; keep whichever
		// copy is validly signed.
		if !bytes.Equal(prev.Sig, m.Sig) && !r.validSig(prev) {
			r.fwdSeen.put(key, forwardHalf(m))
		}
	default:
		second := forwardHalf(m)
		if !r.validSig(second) {
			return
		}
		if !r.validSig(prev) {
			r.fwdSeen.put(key, second)
			return
		}
		r.Ev.Add(evidence.Record{
			Kind: evidence.KindConflictingForward, Accused: m.From,
			Shard: r.Shard, Seq: m.Seq,
			First: prev, Second: second,
			Transferable: true,
		})
	}
}

// forwardHalf is the evidence half of Forward m: its canonical tuple and
// signature. The ring tag vector is left out — it authenticated the copy to
// this replica only, and the records keep the bytes they always had.
func forwardHalf(m *types.Message) evidence.Msg {
	h := evidence.MsgOf(m)
	h.MAC = nil
	return h
}

// validSig reports whether half h carries its sender's Ed25519 signature
// over its canonical tuple (memoised by the verifier).
func (r *Replica) validSig(h evidence.Msg) bool {
	var sb [types.SigBytesLen]byte
	msg := types.AppendSigBytes(sb[:0], h.Type, h.Shard, h.View, h.Seq, h.Digest, h.From)
	return r.Verifier.Verify(h.From, msg, h.Sig) == nil
}

// fifoWindow remembers the first value seen per key — the first Forward
// half per (sender, sequence), the first batch digest per client
// transaction id — at most capacity entries. At capacity the oldest key is
// evicted — a FIFO like the verifier's memo — so detection keeps working
// for new claims however long the replica runs; the bound only limits how
// far back a conflicting claim can still be matched.
type fifoWindow[K comparable, V any] struct {
	capacity int
	first    map[K]V
	order    []K // eviction ring over the keys of first
	next     int
}

func newFIFOWindow[K comparable, V any](capacity int) *fifoWindow[K, V] {
	return &fifoWindow[K, V]{capacity: capacity, first: make(map[K]V)}
}

// put stores v under key, evicting the oldest key when a new one arrives at
// capacity.
func (w *fifoWindow[K, V]) put(key K, v V) {
	if _, ok := w.first[key]; !ok {
		if len(w.order) < w.capacity {
			w.order = append(w.order, key)
		} else {
			delete(w.first, w.order[w.next])
			w.order[w.next] = key
			w.next = (w.next + 1) % w.capacity
		}
	}
	w.first[key] = v
}

// executeCst executes this shard's fragment with every dependency resolved
// from the carried Σ, appends the block, releases locks, and passes the
// Execute message down the ring (Fig 5 lines 33-37).
func (r *Replica) executeCst(cs *cstState) {
	if cs.executed || cs.batch == nil || !cs.locked {
		return
	}
	remote := make(map[types.Key]types.Value)
	for _, ws := range cs.carried {
		for i, k := range ws.ReadKeys {
			remote[k] = ws.ReadValues[i]
		}
	}
	cs.results = r.executeBatch(cs.batch, remote)
	cs.executed = true
	if cs.fwdCert == nil {
		r.unsettled = append(r.unsettled, cs)
	}
	r.Observe(cs.seq, trace.PhaseExecute)
	r.Results[cs.digest] = cs.results
	primary := r.PBFT.Primary(r.PBFT.View())
	r.Ledger.Append(cs.seq, primary, cs.batch)
	r.logBlock(cs.seq, primary, cs.batch, cs.results)
	r.markExecuted(cs.seq)

	// Push this shard's updated write fragment into Σ (Fig 5 line 34).
	out := types.WriteSet{Shard: r.Shard}
	for i := range cs.batch.Txns {
		t := &cs.batch.Txns[i]
		for _, k := range t.WritesAt(r.Shard, r.Cfg.Shards) {
			out.Keys = append(out.Keys, k)
			out.Values = append(out.Values, r.KV.Get(k))
		}
	}
	cs.mergeCarried([]types.WriteSet{out})

	r.locks.Unlock(r.localKeys(cs.batch), lockOwner(cs.batch))
	cs.released = true

	r.sendExecute(cs)
	r.drainLockQueue()
}

// executeMessage builds this replica's ⟨Execute(Δ, Σℑ)⟩, authenticated by
// a ring tag vector for the next shard. Nothing ever keeps an Execute as
// proof, so it carries no signature.
func (r *Replica) executeMessage(cs *cstState) *types.Message {
	next, _ := cs.batch.NextInRing(r.Shard)
	m := &types.Message{
		Type: types.MsgExecute, From: r.Self, Shard: r.Shard,
		Seq: cs.seq, Digest: cs.digest, WriteSets: cs.carried,
	}
	m.MAC = r.ringTags(next, m)
	return m
}

// sendExecute sends ⟨Execute(Δ, Σℑ)⟩ to the same-index replica of the next
// involved shard (Fig 5 line 37).
func (r *Replica) sendExecute(cs *cstState) {
	next, _ := cs.batch.NextInRing(r.Shard)
	r.sendRing(next, r.executeMessage(cs))
}

// onExecute handles the second-rotation Execute message (Fig 5 lines 40-44):
// a shard that has not executed yet does so now (the carried Σ resolves its
// dependencies); the initiator — which executed at the start of rotation 2 —
// replies to the client instead.
func (r *Replica) onExecute(m *types.Message) {
	cs, ok := r.csts[m.Digest]
	if !ok || cs.batch == nil {
		// Either an unknown digest or this replica was kept in dark during
		// local replication; it cannot execute and relies on checkpoints.
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != cs.batch.PrevInRing(r.Shard) {
		return
	}
	if r.verifyRingTag(m) != nil {
		return
	}
	if _, dup := cs.execFrom[m.From]; dup {
		// Mirror of the Forward dup path: a retransmitted Execute copy
		// means someone in this shard is still short of the f+1 Execute
		// quorum; re-share the lane copy.
		if m.From.Index == r.Self.Index {
			r.Relay(m)
		}
		return
	}
	cs.execFrom[m.From] = struct{}{}
	cs.mergeCarried(m.WriteSets)
	if m.From.Index == r.Self.Index && !cs.execRelayed {
		cs.execRelayed = true
		r.Relay(m)
	}
	if cs.execAccepted || len(cs.execFrom) <= r.Cfg.F() {
		return
	}
	cs.execAccepted = true

	if cs.executed {
		if r.Shard == cs.batch.Initiator() {
			// Execution completed across all shards; answer the client
			// (Section 4.3.7).
			if !cs.replied {
				cs.replied = true
				r.Respond(host.ClientOf(cs.batch), cs.digest, cs.results)
				r.Observe(cs.seq, trace.PhaseReply)
			}
			return
		}
		// Already executed but not the initiator (fast-path shard):
		// keep the rotation moving.
		r.sendExecute(cs)
		return
	}
	if cs.locked {
		r.executeCst(cs)
	}
}

// onRemoteView handles the remote view-change protocol of Fig 6: replicas of
// the next shard, starved of Forward messages, ask this shard to replace its
// primary. f+1 distinct complainants trigger a local view change.
func (r *Replica) onRemoteView(m *types.Message) {
	b := m.Batch
	if b == nil || !b.Involves(r.Shard) {
		return
	}
	d := b.Digest()
	if d != m.Digest {
		return
	}
	next, _ := b.NextInRing(r.Shard)
	if m.From.Kind != types.KindReplica || m.From.Shard != next {
		return
	}
	if crypto.VerifyMessageSig(r.Auth, m) != nil {
		return
	}
	cs := r.cst(d)
	if cs.executed {
		// Direct catch-up, before any dedup: a single starving replica of
		// the next shard can never assemble f+1 distinct Execute senders
		// through its own ring lane alone (each retransmission reaches it
		// from the same sender), so every executed replica that hears a
		// complaint — the relay spreads it shard-wide — answers the
		// complainant with its Execute. Re-sent complaints re-trigger this,
		// paced by the complainant's remote timer (found by internal/chaos,
		// loss-storm schedules: two Execute-starved replicas also starve
		// the checkpoint quorum, blocking state transfer).
		r.Send(m.From, r.executeMessage(cs))
	}
	if cs.remoteComplaints == nil {
		cs.remoteComplaints = make(map[types.NodeID]struct{})
	}
	if _, dup := cs.remoteComplaints[m.From]; dup {
		return
	}
	cs.remoteComplaints[m.From] = struct{}{}
	if m.From.Index == r.Self.Index && !cs.remoteRelayed {
		cs.remoteRelayed = true
		r.Relay(m)
	}
	if len(cs.remoteComplaints) <= r.Cfg.F() || cs.remoteHandled {
		return
	}
	cs.remoteHandled = true
	r.ring.remoteViews.Inc()
	// Make sure the (possibly new) primary has the batch to propose, then
	// support the view change (Fig 6 lines 5-6).
	if cs.batch == nil {
		cs.batch = b
	}
	if !cs.fwdAccepted && cs.fwdFirst.IsZero() {
		// Middle shard of a ring of three or more: the complaint reveals a
		// batch this shard never saw a Forward copy for. Arm the remote
		// timer so this shard complains upstream in turn — until the
		// previous shard's certificate arrives no primary here can justify
		// proposing it, so upstream pressure is the only recovery path.
		r.armRemote(cs)
	}
	r.Await(b, d)
	if cs.executed || cs.locked {
		// We already replicated it; the complaint is about lost messages,
		// not a faulty primary. Retransmit instead of view-changing: the
		// Forward (first rotation) and, if we already executed, the Execute
		// carrying Σ (second rotation).
		if cs.forwardMsg != nil {
			r.Obs.Retransmits.Inc()
			r.Send(types.ReplicaNode(next, r.Self.Index), cs.forwardMsg)
		}
		if cs.executed {
			r.Obs.Retransmits.Inc()
			r.sendExecute(cs)
		}
		return
	}
	if r.justified(b) {
		// Only view-change when a primary of this shard could actually
		// propose the batch: without the Forward quorum every view burns a
		// timeout parking the same unjustifiable proposal, while the armed
		// remote timer above already drives recovery upstream.
		r.PBFT.StartViewChange(r.PBFT.View() + 1)
	}
}
