package host

import (
	"ringbft/internal/ledger"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// The durable side of a shard replica, shared by every protocol: one WAL
// replay (Recover), one executed-block recorder (Record) and one snapshot
// cut (Cut, and Reset after a peer state transfer). What differs stays in
// the protocols: when to cut, which watermarks a snapshot carries beyond
// the cut itself, and how the recovered sequences fold into their own
// progress state.

// Recover rebuilds the store, the ledger and the result caches from a
// snapshot plus the WAL tail: the snapshot's table replaces the preloaded
// one, its chain is rebuilt, and every tail block record re-applies its
// writes from the recorded results. block reports the sequence of every
// recovered block, view-change no-op fillers included; progress, if
// non-nil, receives every progress record in log order. The engine rejoins
// the newest view recovered: without it, a replica restarted after a view
// change would stash every current-view message as "future" and never
// catch up. Call from the protocol's Load hook.
func (r *Replica) Recover(rec *wal.Recovered, block func(types.SeqNum), progress func(*wal.Record)) {
	var view types.View
	if snap := rec.Snap; snap != nil {
		view = snap.View
		r.KV.Restore(snap.Pairs)
		// Appending re-derives every hash link, so a damaged snapshot that
		// slipped past the checksum still cannot yield a chain that fails
		// Verify silently.
		r.Ledger = ledger.Rebuild(snap.Shard, &ledger.Block{
			Seq: snap.Base.Seq, Digest: snap.Base.Digest, Primary: snap.Base.Primary,
			PrevHash: snap.Base.PrevHash, MerkleRoot: snap.Base.MerkleRoot, TxnCount: snap.Base.TxnCount,
		}, snap.BaseIndex, nil)
		for i := range snap.Blocks {
			sb := &snap.Blocks[i]
			r.Ledger.Append(sb.Seq, sb.Primary, sb.Batch)
			r.cacheRecovered(sb.Batch, sb.Results)
			block(sb.Seq)
		}
		r.LastSnap = snap.StableSeq
	}
	for i := range rec.Tail {
		t := &rec.Tail[i]
		switch t.Kind {
		case wal.KindProgress:
			r.Proposed[t.BatchDigest] = struct{}{}
			view = max(view, t.View)
			if progress != nil {
				progress(t)
			}
		case wal.KindBlock:
			if len(t.Batch.Txns) > 0 {
				for j := range min(len(t.Batch.Txns), len(t.Results)) {
					r.KV.ApplyTxnWrites(&t.Batch.Txns[j], r.Shard, r.Cfg.Shards, t.Results[j])
				}
				r.cacheRecovered(t.Batch, t.Results)
				r.Ledger.Append(t.Seq, t.Primary, t.Batch)
			}
			block(t.Seq)
		default:
			// Evidence records live in the evidence log's own WAL, not the
			// replica's; any other kind in the tail is not replica state.
		}
	}
	if view > 0 {
		r.PBFT.ForceView(view)
	}
}

// cacheRecovered repopulates the executed and proposed caches for one
// recovered batch. A batch that an earlier build merged from several
// client requests (Batch.Reqs) is also split back into them, so a client
// retransmitting after the restart is answered under the digest it is
// waiting on, and none of its requests is proposed again.
func (r *Replica) cacheRecovered(b *types.Batch, results []types.Value) {
	d := b.Digest()
	r.Results[d] = results
	r.Proposed[d] = struct{}{}
	if len(b.Reqs) < 2 || len(results) < len(b.Txns) {
		return
	}
	lo := 0
	for _, sb := range b.SubBatches() {
		sd := sb.Digest()
		r.Results[sd] = results[lo : lo+len(sb.Txns)]
		r.Proposed[sd] = struct{}{}
		lo += len(sb.Txns)
	}
}

// Record is the one executed-block recorder. A batch with transactions has
// its results cached under its digest d (retransmitted requests are
// answered from there, attack A1) and is appended to the ledger; every
// batch, an empty view-change no-op filler too, gets a WAL block record,
// so recovery advances the executed watermark across it.
func (r *Replica) Record(seq types.SeqNum, primary types.NodeID, d types.Digest, b *types.Batch, results []types.Value) {
	if len(b.Txns) > 0 {
		r.Results[d] = results
		r.Ledger.AppendDigest(seq, primary, d, b)
	}
	if r.Dur != nil {
		r.DurOK(r.Dur.LogBlock(seq, primary, b, results))
	}
}

// Cut cuts a durable snapshot at seq, at most one per CheckpointInterval
// after the last: it drops the ledger blocks and cached results below seq,
// captures the table, the retained chain and the view, and saves them,
// which garbage-collects the WAL segments the snapshot covers. The
// snapshot is anchored at checkpoint (seq, digest) and stamped as ordered
// and executed through seq; marks, if non-nil, fills in the watermarks a
// protocol tracks beyond that. The proposed latches are kept: at ~48 bytes
// a digest they are cheap, and they are what stops a replayed client
// request from re-ordering an ancient batch (attack A1).
func (r *Replica) Cut(seq types.SeqNum, digest types.Digest, marks func(*wal.Snapshot)) {
	if r.Dur == nil || seq < r.LastSnap+r.Cfg.CheckpointInterval {
		return
	}
	// Stop at the first retained block >= seq, mirroring Chain.Prune's cut
	// exactly: an out-of-order block behind the boundary stays in the
	// chain and keeps its cached results.
	for _, b := range r.Ledger.Blocks()[1:] {
		if b.Seq >= seq {
			break
		}
		delete(r.Results, b.Digest)
	}
	r.Ledger.Prune(seq)
	if r.DurOK(r.Dur.SaveSnapshot(r.capture(seq, digest, marks))) {
		r.LastSnap = seq
	}
}

// Reset restarts the replica's durable state from a snapshot of its current
// state, anchored at checkpoint (seq, digest): the cut a peer state
// transfer installs, after which the WAL before it is worthless.
func (r *Replica) Reset(seq types.SeqNum, digest types.Digest, marks func(*wal.Snapshot)) {
	if r.Dur == nil {
		return
	}
	r.DurOK(r.Dur.Reset(r.capture(seq, digest, marks)))
	r.LastSnap = seq
}

// capture snapshots the replica's current state for Cut and Reset: the
// table, the view, and the ledger section, that is the base header the
// retained chain rests on and every retained block with its cached results.
func (r *Replica) capture(seq types.SeqNum, digest types.Digest, marks func(*wal.Snapshot)) *wal.Snapshot {
	s := &wal.Snapshot{
		Shard: r.Shard, StableSeq: seq, CheckpointDigest: digest,
		KMax: seq, ExecSeq: seq, View: r.PBFT.View(), Pairs: r.KV.Pairs(),
	}
	if marks != nil {
		marks(s)
	}
	base, baseIdx := r.Ledger.Base()
	s.Base = wal.BlockHeader{
		Seq: base.Seq, Digest: base.Digest, Primary: base.Primary,
		PrevHash: base.PrevHash, MerkleRoot: base.MerkleRoot, TxnCount: base.TxnCount,
	}
	s.BaseIndex = baseIdx
	for _, b := range r.Ledger.Blocks()[1:] {
		if b.Batch != nil {
			s.Blocks = append(s.Blocks, wal.SnapBlock{
				Seq: b.Seq, Primary: b.Primary, Batch: b.Batch, Results: r.Results[b.Digest],
			})
		}
	}
	return s
}
