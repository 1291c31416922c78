package sharper

import (
	"time"

	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// Sharper's half of peer state transfer (host.Transfer; the request, the
// answer and the certificate check live in internal/host/transfer.go). A
// replica that falls behind the shard — a commit-prefix hole below the
// stable checkpoint (the engine GC'd the sequence, so no view change can
// ever re-propose it), or a lone view change no quorum will join — fetches
// the blocks it is missing instead of stalling forever (found by
// internal/chaos, loss-storm schedules: two simultaneous stragglers also
// starve the checkpoint quorum, so neither can wait for the other to
// recover).
//
// Sharper's checkpoint digest covers only the rolling fold of committed
// batch digests (pbft.CheckpointTracker), so the content is the missing
// *blocks*: the requester re-derives the fold from its own contiguous
// prefix (sequence gaps are view-change no-op fillers, whose empty-batch
// digest every replica knows) and re-executes the batches locally. Neither
// state nor results travel, and substituting any batch in the replayed
// range requires a SHA-256 collision against the certified fold.

// maybeCatchup (HandleTick) detects the two wedges consensus cannot fix and
// paces a catch-up request to the shard peers:
//
//   - the stable watermark moved past a commit-prefix hole (a NewView's
//     StableSeq adoption pruned a sequence we never committed — the engine
//     will not re-propose it, and execution can never pass it);
//   - a view change no quorum joined (a lone straggler's timeout in an
//     otherwise healthy shard: no NewView will ever arrive, and staying
//     dark stops this replica's cross-shard votes and checkpoints too).
//
// Runs before HandleTick's in-view-change early return — the second wedge
// is only reachable from inside a view change.
func (r *Replica) maybeCatchup(now time.Time) {
	behindStable := r.PBFT.StableSeq() > r.Tracker.Next()
	vcStuck := r.PBFT.InViewChange() && now.Sub(r.LastVC) > 3*r.Cfg.LocalTimeout
	if !behindStable && !vcStuck {
		return
	}
	if _, asked, _ := r.Requested(); now.Sub(asked) <= r.Cfg.LocalTimeout {
		return
	}
	r.RequestState(r.ExecNext) // a useful checkpoint lies past the executed watermark
}

// serveBlocks ships the blocks past the requester's executed watermark
// through checkpoint p.Seq, provided the checkpoint lies past that
// watermark, local execution covers it and the chain still retains every
// one of those blocks.
func (r *Replica) serveBlocks(p *types.StatePayload, _ types.Digest, watermark types.SeqNum) bool {
	blocks := r.Ledger.Blocks()
	if p.Seq <= watermark || r.ExecNext < p.Seq || blocks[0].Seq > watermark {
		return false
	}
	for _, b := range blocks[1:] {
		if b.Seq > watermark && b.Seq <= p.Seq {
			p.Blocks = append(p.Blocks, types.BlockRec{Seq: b.Seq, Primary: b.Primary, Batch: b.Batch})
		}
	}
	return true
}

// checkBlocks reports whether p lies past this replica's executed prefix
// and its blocks extend that prefix's fold exactly to the certified digest
// d: blocks this replica already committed must match its own digests,
// the rest must consume every shipped block in strictly ascending sequence
// order.
func (r *Replica) checkBlocks(p *types.StatePayload, d types.Digest) bool {
	if p.Seq <= r.ExecNext || p.Seq < r.Tracker.Next() {
		return false
	}
	noop := (&types.Batch{}).Digest()
	next, prefix := r.Tracker.Next(), r.Tracker.Prefix()
	bi := 0
	for bi < len(p.Blocks) && p.Blocks[bi].Seq <= next {
		if bi > 0 && p.Blocks[bi].Seq <= p.Blocks[bi-1].Seq {
			return false
		}
		// Overlap with our own committed prefix: the fold below starts past
		// these, so pin each one to the digest we committed ourselves.
		br := &p.Blocks[bi]
		ent, ok := r.Entries[br.Seq]
		if br.Seq > r.ExecNext && (!ok || br.Batch == nil ||
			ent.Digest != br.Batch.Digest()) {
			return false
		}
		bi++
	}
	for s := next + 1; s <= p.Seq; s++ {
		bd := noop
		if bi < len(p.Blocks) && p.Blocks[bi].Seq == s {
			b := p.Blocks[bi].Batch
			if b == nil || len(b.Txns) == 0 {
				return false
			}
			bd = b.Digest()
			bi++
		}
		prefix = pbft.FoldStep(prefix, s, bd)
	}
	return bi == len(p.Blocks) && prefix == d
}

// installBlocks re-executes the missing blocks in order (the certificate
// proves the shard committed and passed them — a cross-shard batch in the
// range had its global rounds complete shard-wide, or no block after it
// could exist). Client responses are not re-sent: these transactions
// completed long ago through the healthy replicas.
func (r *Replica) installBlocks(p *types.StatePayload, certified types.Digest) {
	for i := range p.Blocks {
		br := &p.Blocks[i]
		if br.Seq <= r.ExecNext {
			continue
		}
		b := br.Batch
		d := b.Digest()
		r.Proposed[d] = struct{}{}
		delete(r.Awaiting, d)
		if gs, ok := r.global[d]; ok {
			gs.committed = true // completed shard-wide; stop renudging it
		}
		r.Executed(br.Seq, br.Primary, d, b, r.Execute(b))
		r.ExecNext = br.Seq
	}
	for s := range r.Entries {
		if s <= p.Seq {
			delete(r.Entries, s)
		}
	}
	r.ExecNext = p.Seq
	r.Tracker.Advance(p.Seq, certified)
	// Repositioning also clears a lone in-flight view change: the shard is
	// provably past this checkpoint, so rejoining the current view is both
	// safe and the only way this replica ever participates again.
	r.PBFT.ResumeAt(p.Seq, p.Seq+1)
	r.DrainExec()
}
