package ringbft

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// HandleTick drives the three timers of Section 5 ("Triggering of Timers"),
// ordered local < remote < transmit:
//
//   - local timer: a request the primary failed to propose, or a proposal
//     that failed to commit, within LocalTimeout triggers a PBFT view
//     change (attacks A1/A2);
//   - remote timer: a Forward seen from fewer than f+1 previous-shard
//     replicas within RemoteTimeout triggers a RemoteView complaint to the
//     previous shard (partial communication attack C2, Fig 6);
//   - transmit timer: a successfully replicated cst whose onward progress
//     is unobserved within TransmitTimeout has its Forward retransmitted
//     (no-communication attack C1, Section 5.1.1).
func (r *Replica) HandleTick(now time.Time) {
	r.Tick(now)
	r.retryTransfer(now)
	r.ring.lockKeys.Set(int64(r.locks.Count()))
	// Local timer (the kernel watchdog). An unjustified awaiting entry — a
	// cross-shard batch whose Forward quorum is still in flight — re-arms
	// without escalating; the remote timer below complains upstream instead.
	r.Watchdog(now)

	// Canonical cst order: this pass emits RemoteView complaints and Forward
	// retransmits, so traffic order must not follow map iteration order.
	for _, d := range types.SortedDigestKeys(r.live) {
		cs := r.live[d]
		accepted := r.accepted(len(cs.fwdFrom))
		if cs.executed && (accepted || cs.fwdFirst.IsZero()) && !cs.wantsProof() {
			// Neither timer below can fire again: the transmit timer stops
			// at execution, and the remote timer waits for a Forward quorum
			// that is either complete or was never started, and for no
			// proof. Only armRemote and justification can change that.
			delete(r.live, d)
			continue
		}
		// Remote timer (Fig 6), three starvation modes: (a) first rotation —
		// we saw at least one Forward copy but fewer than f+1 within the
		// timeout; (b) second rotation — consensus and locks are done but
		// the Execute carrying Σ from the previous shard never arrived
		// (the previous shard's replicas answer the complaint with their
		// Execute directly; see onRemoteView); (c) a view change needed the
		// previous shard's certificate and no candidate verified (the
		// answer is a re-proven Forward; see proveForward).
		starving := (!accepted && !cs.fwdFirst.IsZero()) ||
			(accepted && cs.locked && !cs.executed) || cs.wantsProof()
		if starving && !cs.fwdFirst.IsZero() && now.Sub(cs.fwdFirst) > r.Cfg.RemoteTimeout {
			cs.fwdFirst = now // re-arm
			if cs.batch != nil && r.mayComplain(cs) {
				r.sendRemoteView(cs)
			}
		}
		// Transmit timer: retransmit the Forward until the ring shows
		// progress (this replica executing proves the rotation completed).
		if cs.locked && !cs.executed && cs.forwardMsg != nil &&
			now.Sub(cs.forwardSentAt) > r.Cfg.TransmitTimeout {
			cs.forwardSentAt = now
			r.Obs.Retransmits.Inc()
			next, _ := cs.batch.NextInRing(r.Shard)
			r.Send(types.ReplicaNode(next, r.Self.Index), r.proveForward(cs))
		}
	}
}

// wantsProof reports whether a view change asked for cs's previous-shard
// certificate and none has verified since.
func (cs *cstState) wantsProof() bool {
	return cs.wantProof && cs.fwdCert == nil && !cs.settled
}

// mayComplain reports whether this replica holds proof that the previous
// shard committed cs's batch, which a RemoteView needs: f+1 of them push a
// view change upstream. Accepted or locked, the proof is in hand; f+1
// complaints from the next shard armed the timer on their own proof;
// otherwise the timer was armed by Forward copies short of f+1, and one of
// their certificates must verify. Counting does not verify certificates, so
// without this check one faulty previous-shard replica's invented Forward,
// relayed shard-wide, would make every replica here complain.
func (r *Replica) mayComplain(cs *cstState) bool {
	return r.accepted(len(cs.fwdFrom)) || cs.locked ||
		r.accepted(len(cs.remoteComplaints)) || r.provenCert(cs) != nil
}

// sendRemoteView complains to the same-index replica of the previous shard
// that this replica is starved of Forward messages (Fig 6 lines 1-2).
func (r *Replica) sendRemoteView(cs *cstState) {
	prev := cs.batch.PrevInRing(r.Shard)
	m := &types.Message{
		Type: types.MsgRemoteView, From: r.Self, Shard: r.Shard,
		Digest: cs.digest, Batch: cs.batch,
	}
	m.Sig = crypto.SignMessage(r.Auth, m)
	r.ring.remoteViews.Inc()
	r.Send(types.ReplicaNode(prev, r.Self.Index), m)
}
