package ringbft

import (
	"time"

	"ringbft/internal/store"
	"ringbft/internal/types"
)

// RingBFT's half of peer state transfer (host.Transfer; the request, the
// answer, the checks and the install live in internal/host/transfer.go). A
// replica that sees a checkpoint stabilize a full interval past its own
// lock-order watermark — restarted with a gap, kept in the dark by a faulty
// primary (attack A3), or rejoining with a wiped data directory — asks for
// the shard's canonical state and re-asks every RemoteTimeout until one
// installs. A checkpoint is of use only past the lock-order watermark
// (kmax).

// retryTransfer re-sends a starved state request on the remote-timeout
// cadence (driven by HandleTick).
func (r *Replica) retryTransfer(now time.Time) {
	if want, asked, ok := r.Requested(); ok && now.Sub(asked) > r.Cfg.RemoteTimeout {
		r.RequestState(want)
	}
}

// resetTo is the Transfer reset of an installed checkpoint seq: every
// in-flight ring structure below it is dropped (those transactions
// completed without us; the canonical state already includes their
// effects), and the sequences queued past it can lock now.
func (r *Replica) resetTo(seq types.SeqNum) {
	r.execSeq = seq
	r.execDone = make(map[types.SeqNum]struct{})
	r.locks = store.NewLockTable()
	r.csts = make(map[types.Digest]*cstState)
	r.live = make(map[types.Digest]*cstState)
	r.unsettled = nil
	for s := range r.lockQueue {
		if s <= seq {
			delete(r.lockQueue, s)
		}
	}
	r.drainLockQueue()
}
