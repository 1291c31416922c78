package host

import (
	"time"

	"ringbft/internal/types"
)

// Justified reports whether batch b may enter local consensus. Every
// proposal path shares this gate: the engine's Justify callback (parking
// inbound PrePrepares until the protocol's ReplayParked), Propose and Drain
// (so the primary never burns the proposed latch on a batch it cannot
// justify yet), the watchdog, and NewView adoption (which additionally
// accepts a carried certificate; see pbft justifiedProof).
func (k *Kernel) Justified(b *types.Batch) bool {
	return k.justify == nil || k.justify(b)
}

// Await registers a batch the shard's primary must order and arms its
// watchdog. It reports false when the batch was already proposed or
// committed.
func (k *Kernel) Await(b *types.Batch, d types.Digest) bool {
	if _, done := k.Proposed[d]; done {
		return false
	}
	if _, ok := k.Awaiting[d]; !ok {
		k.Awaiting[d] = &Pending{Batch: b, Since: k.Clock()}
	}
	return true
}

// Enqueue registers a batch the current primary must order. The primary
// proposes immediately (window permitting); backups arm the local timer so
// a primary that sits on the request is replaced (attacks A1/A2).
func (k *Kernel) Enqueue(b *types.Batch, d types.Digest) {
	if k.Await(b, d) && k.PBFT.IsPrimary() && !k.PBFT.InViewChange() {
		k.Propose(b, d)
	}
}

// Propose queues b for the primary's drain. An unjustified batch is not
// queued and its proposed latch stays unburnt: it stays in Awaiting and
// re-enters through Enqueue once its justification lands. Proposing it now
// would only park on every backup; worse, cycling primaries would each mark
// it proposed and the eventual justification would find nobody left
// willing to propose (middle-shard wedge, rings of three or more shards,
// found by internal/chaos). Every proposal goes through the FIFO queue, so
// fresh arrivals cannot jump requests already waiting for a slot.
func (k *Kernel) Propose(b *types.Batch, d types.Digest) {
	if _, done := k.Proposed[d]; done || !k.Justified(b) {
		return
	}
	k.Queue = append(k.Queue, b)
	k.Drain()
}

// Drain proposes from the queue head while the primary has window slots.
// Entries proposed meanwhile (or, never today, unjustified) are dropped
// from the queue; the Next hook decides when the head goes out and in what
// shape.
func (k *Kernel) Drain() {
	if !k.PBFT.IsPrimary() || k.PBFT.InViewChange() {
		return
	}
	for len(k.Queue) > 0 {
		b := k.Queue[0]
		if _, done := k.Proposed[b.Digest()]; done || !k.Justified(b) {
			k.Queue = k.Queue[1:]
			continue
		}
		if b = k.next(); b == nil {
			return // window full, or the batcher holds the head for fill
		}
		if _, err := k.PBFT.Propose(b); err != nil {
			return // still blocked
		}
		k.Proposed[b.Digest()] = struct{}{}
		for _, sb := range b.SubBatches() {
			// Latch the original request digests too, so a client
			// retransmission of a coalesced request cannot be proposed a
			// second time (its transactions would execute twice).
			k.Proposed[sb.Digest()] = struct{}{}
		}
		k.Queue = k.Queue[1:]
	}
}

// head is the default drain shape: the queue head, while the pipeline
// window has a free slot.
func (k *Kernel) head() *types.Batch {
	if k.PBFT.InFlight() >= k.Cfg.PipelineDepth {
		return nil // a commit frees the next slot
	}
	return k.Queue[0]
}

// Settle closes the book on a committed batch: its watchdog is disarmed and
// its digest latched against re-proposal. A coalesced proposal commits every
// client request inside it, so each request digest settles too (or every
// backup would keep demanding a view change for requests already decided).
func (k *Kernel) Settle(b *types.Batch) {
	d := b.Digest()
	delete(k.Awaiting, d)
	k.Proposed[d] = struct{}{}
	if len(b.Reqs) > 1 {
		for _, sb := range b.SubBatches() {
			sd := sb.Digest()
			delete(k.Awaiting, sd)
			k.Proposed[sd] = struct{}{}
		}
	}
}

// viewChanged is the engine's view-install hook: a newly promoted primary
// proposes everything still waiting (requests whose proposal the old
// primary suppressed), in sorted-digest order — sequence assignment must
// not depend on map iteration order, or identically seeded runs diverge.
func (k *Kernel) viewChanged(v types.View) {
	k.Obs.ViewChanges.Inc()
	if k.onViewChanged != nil {
		k.onViewChanged(v)
	}
	k.LastVC = k.Clock()
	if !k.PBFT.IsPrimary() {
		return
	}
	for _, d := range types.SortedDigestKeys(k.Awaiting) {
		if _, done := k.Proposed[d]; !done {
			k.Propose(k.Awaiting[d].Batch, d)
		}
	}
	k.Drain()
}

// Watchdog is the local timer of Section 5 (attacks A1/A2): a request the
// primary failed to propose, or a proposal that failed to commit, within
// LocalTimeout triggers a PBFT view change. It reports false when the shard
// is in a view change — already running, or just demanded for an awaiting
// request — and the caller's head-of-line timers should wait.
//
// Escalation for awaiting requests is paced against the last view install
// too: every view gets a full LocalTimeout before the next demand, no matter
// how many stuck proposals are waiting. Every expired entry is re-armed in
// the same pass, in sorted-digest order because a primary's re-proposal
// assigns sequence numbers.
func (k *Kernel) Watchdog(now time.Time) bool {
	if k.PBFT.InViewChange() {
		return false
	}
	timeout := k.Cfg.LocalTimeout
	if now.Sub(k.LastVC) > timeout {
		expired := false
		for _, d := range types.SortedDigestKeys(k.Awaiting) {
			p := k.Awaiting[d]
			if now.Sub(p.Since) <= timeout {
				continue
			}
			p.Since = now // re-arm so escalation is paced
			if !k.Justified(p.Batch) {
				// Its justification is still in flight: no primary of this
				// shard can propose it yet, so a view change cannot help.
				continue
			}
			expired = true
			if k.reproposeExpired && k.PBFT.IsPrimary() {
				delete(k.Proposed, d)
				k.Propose(p.Batch, d)
			}
		}
		if expired && !k.PBFT.IsPrimary() {
			k.PBFT.StartViewChange(k.PBFT.View() + 1)
			return false
		}
	}
	if oldest, ok := k.PBFT.OldestUncommitted(); ok && now.Sub(oldest) > timeout {
		k.PBFT.StartViewChange(k.PBFT.View() + 1)
	}
	return true
}
