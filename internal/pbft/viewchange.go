package pbft

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// StartViewChange abandons the current view and broadcasts a ViewChange
// message targeting view target (> current view). Hosts call it when the
// local timer expires: either nf Commits never arrived for a proposal, or
// the primary failed to propose a client request (attack A2), or f+1
// RemoteView messages arrived from the next shard in ring order (Fig 6).
func (e *Engine) StartViewChange(target types.View) {
	if target <= e.view {
		target = e.view + 1
	}
	if e.inViewChange && target <= e.vcTarget {
		return
	}
	e.inViewChange = true
	e.vcTarget = target
	e.vcStarted = e.now()
	e.observe(types.SeqNum(target), trace.PhaseViewChange)

	// P set: every prepared-but-unstable entry, with its batch so the new
	// primary can re-propose it.
	// The P set travels in the signed ViewChange; walk the log in canonical
	// sequence order so identically seeded replicas emit byte-identical
	// messages.
	var proofs []types.PreparedProof
	for _, seq := range types.SortedSeqKeys(e.log) {
		ent := e.log[seq]
		if ent.prepared && seq > e.stableSeq {
			p := types.PreparedProof{
				View: ent.view, Seq: seq, Digest: ent.digest, Batch: ent.batch,
			}
			// Carry the certificate that justified this batch: preparing it
			// required the local Justify gate to pass, so the host holds the
			// certificate, and the new primary's NewView must present it to
			// receivers that never accepted it themselves.
			if e.cb.Justification != nil {
				p.Justification, _ = e.cb.Justification(ent.batch)
			}
			proofs = append(proofs, p)
		}
	}
	// Seq mirrors StableSeq because the canonical signed tuple covers Seq:
	// the NewView justification reconstructs exactly this tuple.
	m := &types.Message{
		Type: types.MsgViewChange, From: e.self, Shard: e.shard,
		View: target, Seq: e.stableSeq, StableSeq: e.stableSeq, Prepared: proofs,
	}
	e.recordViewChange(e.self, m)
	e.broadcastSigned(m)
}

func (e *Engine) onViewChange(m *types.Message) {
	if m.View <= e.view {
		return
	}
	// A re-sent ViewChange equal to the one held from its sender is
	// compared with it.
	if err := crypto.VerifyResent(e.auth, m, e.vcMsgs[m.View][m.From]); err != nil {
		return
	}
	e.recordViewChange(m.From, m)

	// Join rule: seeing f+1 distinct replicas demanding a view higher than
	// our target proves at least one non-faulty replica timed out; join
	// them so the view change completes even if our own timer lags.
	votes := e.vcVotes[m.View]
	if len(votes) > e.f && (!e.inViewChange || m.View > e.vcTarget) {
		e.StartViewChange(m.View)
	}
	e.maybeNewView(m.View)
}

func (e *Engine) recordViewChange(from types.NodeID, m *types.Message) {
	msgs, ok := e.vcMsgs[m.View]
	if !ok {
		msgs = make(map[types.NodeID]*types.Message)
		e.vcMsgs[m.View] = msgs
	}
	msgs[from] = m
	votes, ok := e.vcVotes[m.View]
	if !ok {
		votes = make(map[types.NodeID]struct{})
		e.vcVotes[m.View] = votes
	}
	votes[from] = struct{}{}
}

// maybeNewView runs at the would-be primary of view v: with nf ViewChange
// messages it assembles the NewView — re-proposals for every prepared
// sequence (highest view wins) and no-op fillers for gaps — and installs the
// view.
func (e *Engine) maybeNewView(v types.View) {
	if e.Primary(v) != e.self || v <= e.view {
		return
	}
	msgs := e.vcMsgs[v]
	if len(msgs) < e.nf {
		return
	}

	// Merge P sets: for each sequence, the proof from the highest view wins
	// (PBFT's selection rule); establish the re-proposal range.
	maxStable := types.SeqNum(0)
	best := make(map[types.SeqNum]types.PreparedProof)
	maxSeq := types.SeqNum(0)
	justification := make([]types.Signed, 0, len(msgs))
	// Canonical voter order: the justification list is embedded in the
	// NewView message, so its layout must not follow map iteration order.
	for _, from := range types.SortedNodeKeys(msgs) {
		vc := msgs[from]
		if vc.StableSeq > maxStable {
			maxStable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			if p.Batch != nil && p.Batch.Digest() != p.Digest {
				// The ViewChange signature does not cover P-set contents:
				// a proof whose batch is not the digest voted on is a faulty
				// sender's, and re-proposing it would get this NewView
				// rejected by every honest receiver.
				continue
			}
			cur, ok := best[p.Seq]
			if !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
		justification = append(justification, types.Signed{
			From: from, Type: types.MsgViewChange, Shard: e.shard,
			View: vc.View, Seq: vc.StableSeq, Sig: vc.Sig,
		})
	}
	if maxStable > e.stableSeq {
		e.stabilize(maxStable)
	}

	// O set: re-proposals from maxStable+1..maxSeq, no-ops for gaps.
	var reproposals []types.PreparedProof
	for s := maxStable + 1; s <= maxSeq; s++ {
		if p, ok := best[s]; ok {
			// The ViewChange signature does not cover P-set contents, so a
			// carried justification is only a claim: one missing (older
			// sender, lost field) or failing verification (a faulty voter
			// that won the selection with a higher view) is replaced from
			// this primary's own certificate store. Relaying it unchecked
			// would get this honest primary accused by every receiver
			// short of its own Forward quorum. For the same reason a primary
			// whose own certificate is not ready holds the NewView: it
			// vouches for the batch, so the proof is on its way, and Tick
			// retries until it arrives or the view change moves on.
			if e.cb.Justification != nil && !e.carriesJustification(&p) {
				var ready bool
				if p.Justification, ready = e.cb.Justification(p.Batch); !ready {
					e.heldNV = v
					return
				}
			}
			reproposals = append(reproposals, p)
		} else {
			noop := &types.Batch{}
			reproposals = append(reproposals, types.PreparedProof{
				View: v, Seq: s, Digest: noop.Digest(), Batch: noop,
			})
		}
	}

	e.heldNV = 0
	nv := &types.Message{
		Type: types.MsgNewView, From: e.self, Shard: e.shard,
		View: v, StableSeq: maxStable,
		Prepared: reproposals, ViewMsgs: justification,
	}
	e.broadcastSigned(nv)
	e.installView(v, maxStable, reproposals, true)
}

func (e *Engine) onNewView(m *types.Message) {
	if m.View <= e.view || m.From != e.Primary(m.View) {
		return
	}
	if err := crypto.VerifyMessageSig(e.auth, m); err != nil {
		return
	}
	if len(m.ViewMsgs) < e.nf {
		return
	}
	// Verify the justification: nf distinct signed ViewChange tuples (the
	// structural filter and sender dedup stay here; VerifyQuorum only spends
	// Ed25519 work). An entry equal to a ViewChange this replica already
	// verified on arrival is compared with it instead.
	seen := make(map[types.NodeID]struct{}, len(m.ViewMsgs))
	entries := make([]*types.Signed, 0, len(m.ViewMsgs))
	for i := range m.ViewMsgs {
		s := &m.ViewMsgs[i]
		if s.Type != types.MsgViewChange || s.View != m.View || s.Shard != e.shard {
			continue
		}
		if _, dup := seen[s.From]; dup {
			continue
		}
		seen[s.From] = struct{}{}
		entries = append(entries, s)
	}
	var held []types.Signed
	vcs := e.vcMsgs[m.View]
	for _, from := range types.SortedNodeKeys(vcs) {
		vc := vcs[from]
		held = append(held, types.Signed{
			From: vc.From, Type: vc.Type, Shard: vc.Shard,
			View: vc.View, Seq: vc.Seq, Digest: vc.Digest, Sig: vc.Sig,
		})
	}
	if valid, _ := crypto.VerifyQuorum(e.auth, entries, e.nf, held); valid < e.nf {
		return
	}
	// Content and justification gates: every re-proposal this replica would
	// adopt must be the batch its digest names — the entry's digest is what
	// the host keys the committed batch on — and either pass the local
	// Justify gate or carry a verifiable certificate. One failing
	// re-proposal rejects the whole NewView — adopting the rest would let a
	// Byzantine new primary split the shard between replicas that saw
	// different NewView variants — and the view-change timer then escalates
	// past the faulty primary (Tick).
	for i := range m.Prepared {
		p := &m.Prepared[i]
		if ent, ok := e.log[p.Seq]; ok && ent.committed {
			continue // already decided locally; nothing is adopted for it
		}
		if p.Batch == nil {
			continue
		}
		if p.Batch.Digest() != p.Digest {
			return
		}
		if e.justifiedProof(p) {
			continue
		}
		if e.cb.UnjustifiedNewView != nil {
			e.cb.UnjustifiedNewView(m, *p)
		}
		return
	}
	if m.StableSeq > e.stableSeq {
		e.stabilize(m.StableSeq)
	}
	e.installView(m.View, m.StableSeq, m.Prepared, false)
}

// justifiedProof reports whether re-proposal p may be adopted: the local
// Justify gate passes (this replica holds the evidence itself), or the
// proof carries a justification the host verifies (this replica is behind —
// e.g. its Forward quorum never completed — but the certificate is
// transferable and speaks for itself).
func (e *Engine) justifiedProof(p *types.PreparedProof) bool {
	if e.cb.Justify == nil || e.cb.Justify(p.Batch, p.Digest) {
		return true
	}
	return e.cb.VerifyJustification != nil && e.cb.VerifyJustification(p.Batch, p.Justification)
}

// carriesJustification reports whether P-set proof p carries a
// justification the host verifies.
func (e *Engine) carriesJustification(p *types.PreparedProof) bool {
	return len(p.Justification) > 0 &&
		(e.cb.VerifyJustification == nil || e.cb.VerifyJustification(p.Batch, p.Justification))
}

// installView moves the replica into view v, resets per-view state, and
// replays the new primary's re-proposals through the ordinary three-phase
// path so that previously prepared batches commit in the new view.
func (e *Engine) installView(v types.View, stable types.SeqNum, reproposals []types.PreparedProof, isPrimary bool) {
	e.view = v
	e.inViewChange = false
	e.vcTarget = 0
	delete(e.vcMsgs, v)
	delete(e.vcVotes, v)

	// Reset un-committed entries: they must re-run phases in the new view.
	// firstSeen restarts too — the watchdog must give the new view a full
	// LocalTimeout to commit the re-proposals. Keeping the old timestamp
	// livelocks the shard: the first tick after an install sees an entry
	// "stuck" longer than the timeout and immediately starts the next view
	// change, aborting every re-proposal round forever (found by
	// internal/chaos, loss-storm and Byzantine-primary schedules).
	now := e.now()
	maxSeq := e.stableSeq
	for seq, ent := range e.log {
		if seq > maxSeq {
			maxSeq = seq
		}
		if !ent.committed {
			ent.preprepared = false
			ent.prepared = false
			ent.view = v
			ent.prepares = make(map[types.NodeID]types.Digest)
			ent.commits = make(map[types.NodeID]commitVote)
			ent.firstSeen = now
			// Equivocation evidence is per-(view, pre-prepare); the new
			// view's proposal is the NewView itself, so the pairing state
			// resets (the evidence log retains anything already recorded).
			ent.ppMsg = nil
			ent.conflicts = nil
			ent.accused = false
		}
	}
	for _, p := range reproposals {
		if p.Seq > maxSeq {
			maxSeq = p.Seq
		}
	}
	e.nextSeq = maxSeq + 1

	for _, p := range reproposals {
		ent := e.getEntry(p.Seq)
		if ent.committed {
			continue // already decided; NewView carries the same digest for honest quorums
		}
		ent.view = v
		ent.digest = p.Digest
		ent.batch = p.Batch
		ent.preprepared = true
		ent.prepares[e.Primary(v)] = p.Digest
		if !isPrimary {
			ent.prepares[e.self] = p.Digest
			prep := &types.Message{
				Type: types.MsgPrepare, From: e.self, Shard: e.shard,
				View: v, Seq: p.Seq, Digest: p.Digest,
			}
			e.broadcastMAC(prep)
		}
		e.maybePrepared(p.Seq, ent)
	}
	if e.cb.ViewChanged != nil {
		e.cb.ViewChanged(v)
	}

	// Replay stashed messages that were waiting for this view.
	e.replayFuture()
}

// Tick drives time-based escalation: if a view change has stalled (no
// NewView within the view timeout) the replica targets the next view. A
// primary holding its NewView for a justification retries it first. Hosts
// call Tick periodically from their event loops.
func (e *Engine) Tick(now time.Time) {
	if e.heldNV != 0 && e.inViewChange && e.vcTarget == e.heldNV {
		e.maybeNewView(e.heldNV)
	}
	if e.inViewChange && now.Sub(e.vcStarted) > e.vcTimeout {
		e.StartViewChange(e.vcTarget + 1)
	}
}
