package host

import (
	"time"

	"ringbft/internal/ledger"
	"ringbft/internal/pbft"
	"ringbft/internal/store"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Replica is a Kernel that holds a shard's data: its store partition, its
// ledger, the cached results of executed batches and the checkpoint
// tracker. Every shard replica embeds one; AHL's reference committee, which
// holds no data, embeds a bare Kernel and so exposes no ledger to capture.
type Replica struct {
	*Kernel
	KV     *store.KV
	Ledger *ledger.Chain
	// Tracker folds the committed prefix and schedules a checkpoint every
	// CheckpointInterval sequences, signed once execution covers it
	// (checkpoint.go).
	Tracker *pbft.CheckpointTracker
	// Results caches the results of executed batches by digest, so
	// retransmitted client requests are answered from the log (attack A1).
	Results map[types.Digest][]types.Value
	// LastSnap is the sequence of the newest durable snapshot (durable.go).
	LastSnap types.SeqNum

	Rec *wal.Recovered // consumed by Load
}

// NewReplica builds a kernel plus an empty store partition, ledger and
// checkpoint tracker. opts.Transfer must be set: it is what gives the
// kernel its checkpoint table.
func NewReplica(opts Options) Replica {
	k := New(opts)
	return Replica{
		Kernel:  k,
		KV:      store.NewKV(),
		Ledger:  ledger.NewChain(opts.Shard),
		Tracker: pbft.NewCheckpointTracker(opts.Config.CheckpointInterval, k.schedule),
		Results: make(map[types.Digest][]types.Value),
		Rec:     opts.Recovered,
	}
}

// Load installs records of this shard's partition (see store.KV.Preload),
// then — for a durable replica — hands the state recovered from disk to
// apply. Call before the first message is handled.
func (r *Replica) Load(records int, apply func(*wal.Recovered)) {
	r.KV.Preload(r.Shard, r.Cfg.Shards, records)
	if r.Dur != nil && r.Rec != nil && !r.Rec.Empty() {
		apply(r.Rec)
	}
	r.Rec = nil
}

// Chain returns the replica's ledger.
func (r *Replica) Chain() *ledger.Chain { return r.Ledger }

// Store returns the replica's key-value partition.
func (r *Replica) Store() *store.KV { return r.KV }

// StateTransferCount returns the number of peer state transfers installed.
func (r *Replica) StateTransferCount() int64 { return r.Obs.StateTransfers.Value() }

// ExecutedResults returns a deterministic hash of the cached execution
// results per executed batch digest — the cross-replica agreement surface
// the chaos checkers compare ("executed-result caches agree on batches both
// replicas executed"). Call only after Run returns.
func (r *Replica) ExecutedResults() map[types.Digest]uint64 {
	out := make(map[types.Digest]uint64, len(r.Results))
	for d, vals := range r.Results {
		out[d] = types.HashValues(vals)
	}
	return out
}

// Sequential is a Replica that executes committed batches strictly in local
// sequence order, the AHL and Sharper discipline: a cross-shard entry blocks
// the shard until the protocol's Ready gate opens for it, which is exactly
// where those baselines' cross-shard round trips bite.
type Sequential struct {
	Replica
	// ExecNext is the executed-prefix watermark; Entries holds committed
	// batches above it by sequence.
	ExecNext types.SeqNum
	Entries  map[types.SeqNum]Queued
	ready    func(b *types.Batch, d types.Digest) bool
}

// NewSequential builds a sequentially executing replica. ready reports
// whether a committed cross-shard batch b, with digest d, may execute yet.
// Its state transfer installs past the executed watermark.
func NewSequential(opts Options, ready func(b *types.Batch, d types.Digest) bool) *Sequential {
	s := &Sequential{
		Entries: make(map[types.SeqNum]Queued),
		ready:   ready,
	}
	opts.Transfer = &Transfer{Watermark: func() types.SeqNum { return s.ExecNext }, Reset: s.skip}
	s.Replica = NewReplica(opts)
	return s
}

// ExecutedThrough returns the executed-prefix watermark. Call only after
// Run returns.
func (s *Sequential) ExecutedThrough() types.SeqNum { return s.ExecNext }

// Preload installs records of this shard's partition, then applies any
// state recovered from disk. Call before the first message is handled.
func (s *Sequential) Preload(records int) { s.Load(records, s.applyRecovered) }

// applyRecovered resumes from a snapshot plus the WAL tail (Recover): an
// in-order executor's executed watermark doubles as its k_max.
func (s *Sequential) applyRecovered(rec *wal.Recovered) {
	if rec.Snap != nil {
		s.ExecNext = rec.Snap.KMax
	}
	s.Recover(rec, func(seq types.SeqNum) { s.ExecNext = max(s.ExecNext, seq) }, nil)
	s.PBFT.ResumeAt(s.ExecNext, s.ExecNext+1)
}

// Commit is the shared half of the engine's Committed callback for batch b
// with digest d: settle the book, queue the batch for execution and fold
// it into the checkpoint tracker. The caller runs its protocol's
// cross-shard step, then DrainExec.
func (s *Sequential) Commit(seq types.SeqNum, b *types.Batch, d types.Digest) {
	s.Settle(d)
	s.Entries[seq] = Queued{Batch: b, Digest: d}
	s.Tracker.Committed(seq, d)
}

// DrainExec executes committed entries strictly in local sequence order,
// stalling at a cross-shard entry the Ready gate still holds. The initiator
// shard answers the client.
func (s *Sequential) DrainExec() {
	for {
		e, ok := s.Entries[s.ExecNext+1]
		if !ok {
			return
		}
		b, d := e.Batch, e.Digest
		if len(b.Txns) > 0 && b.IsCrossShard() && !s.ready(b, d) {
			return
		}
		delete(s.Entries, s.ExecNext+1)
		s.ExecNext++
		seq := s.ExecNext
		primary := s.PBFT.Primary(s.PBFT.View())
		if len(b.Txns) == 0 {
			s.Executed(seq, primary, types.Digest{}, b, nil)
			continue
		}
		results := s.Execute(b)
		s.Obs.Executed(b)
		s.Observe(seq, trace.PhaseExecute)
		s.Executed(seq, primary, d, b, results)
		if b.Initiator() == s.Shard {
			s.Respond(ClientOf(b), d, results)
			s.Observe(seq, trace.PhaseReply)
		}
	}
}

// Execute applies b's local fragment with locally available reads (neither
// baseline ships remote read values; Section 8.8).
func (s *Sequential) Execute(b *types.Batch) []types.Value {
	results := make([]types.Value, len(b.Txns))
	for i := range b.Txns {
		results[i] = s.KV.ExecuteTxnPartial(&b.Txns[i], s.Shard, s.Cfg.Shards)
	}
	return results
}

// Executed records an executed block (Record), signs the checkpoint it
// completes, and cuts a snapshot every CheckpointInterval executed
// sequences.
func (s *Sequential) Executed(seq types.SeqNum, primary types.NodeID, d types.Digest, b *types.Batch, results []types.Value) {
	s.Record(seq, primary, d, b, results)
	s.EmitCheckpoints(seq)
	s.Cut(seq, types.Digest{}, nil)
}

// skip is the Transfer reset of an installed checkpoint seq: the committed
// entries at or below it are dropped, execution resumes past it.
func (s *Sequential) skip(seq types.SeqNum) {
	for q := range s.Entries {
		if q <= seq {
			delete(s.Entries, q)
		}
	}
	s.ExecNext = seq
	s.DrainExec()
}

// CatchUp (call from HandleTick) detects the two wedges consensus cannot
// fix and paces a state request to the shard peers:
//
//   - the stable watermark moved past a commit-prefix hole (a NewView's
//     StableSeq adoption pruned a sequence this replica never committed:
//     the engine will not re-propose it, and execution can never pass it);
//   - a view change no quorum joined (a lone straggler's timeout in an
//     otherwise healthy shard: no NewView will ever arrive, and staying
//     dark stops this replica's cross-shard votes and checkpoints too).
//
// Found by internal/chaos, loss-storm schedules: two simultaneous
// stragglers also starve the checkpoint quorum, so neither can wait for
// the other to recover. Call it before HandleTick's in-view-change early
// return: the second wedge is only reachable from inside a view change.
func (s *Sequential) CatchUp(now time.Time) {
	behindStable := s.PBFT.StableSeq() > s.Tracker.Next()
	vcStuck := s.PBFT.InViewChange() && now.Sub(s.LastVC) > 3*s.Cfg.LocalTimeout
	if !behindStable && !vcStuck {
		return
	}
	if _, asked, _ := s.Requested(); now.Sub(asked) <= s.Cfg.LocalTimeout {
		return
	}
	s.RequestState(s.ExecNext) // a useful checkpoint lies past the executed watermark
}
