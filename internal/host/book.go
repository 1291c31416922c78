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
// accepts a carried certificate; see pbft justifiedProof). d is b's digest.
func (k *Kernel) Justified(b *types.Batch, d types.Digest) bool {
	return k.justify == nil || k.justify(b, d)
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
	if _, done := k.Proposed[d]; done || !k.Justified(b, d) {
		return
	}
	k.Queue = append(k.Queue, Queued{Batch: b, Digest: d})
	k.Drain()
}

// Drain proposes the queue head while the pipeline window has a free
// slot: while the engine holds fewer than Config.PipelineDepth uncommitted
// proposals, clamped to one while the transport's backlog is past half of
// Config.OutboxDepth (pushing more proposals at a transport that is already
// queuing only converts bounded outbox memory into counted drops; one slot
// keeps liveness, since the engine's view-change timers assume a primary
// that proposes). Entries proposed meanwhile (or, never today, unjustified)
// are dropped from the queue.
func (k *Kernel) Drain() {
	if !k.PBFT.IsPrimary() || k.PBFT.InViewChange() {
		return
	}
	for len(k.Queue) > 0 {
		head := k.Queue[0]
		if _, done := k.Proposed[head.Digest]; done || !k.Justified(head.Batch, head.Digest) {
			k.Queue = k.Queue[1:]
			continue
		}
		if k.PBFT.InFlight() >= k.window() {
			return // a commit frees the next slot
		}
		if _, err := k.PBFT.Propose(head.Batch); err != nil {
			return // still blocked
		}
		k.Proposed[head.Digest] = struct{}{}
		k.Queue = k.Queue[1:]
	}
}

// window is the pipeline depth Drain fills right now, counting each pass
// the backpressure clamp shrinks it to one slot.
func (k *Kernel) window() int {
	depth := k.Cfg.PipelineDepth
	if depth > 1 && k.backpressure != nil && k.backpressure() > k.bpLimit {
		k.Obs.clamped.Inc()
		return 1
	}
	return depth
}

// Settle closes the book on the committed batch with digest d: its
// watchdog is disarmed and d latched against re-proposal.
func (k *Kernel) Settle(d types.Digest) {
	delete(k.Awaiting, d)
	k.Proposed[d] = struct{}{}
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
			if !k.Justified(p.Batch, d) {
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
