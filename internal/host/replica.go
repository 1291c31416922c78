package host

import (
	"ringbft/internal/ledger"
	"ringbft/internal/pbft"
	"ringbft/internal/store"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Replica is a Kernel that holds a shard's data: its store partition, its
// ledger and the cached results of executed batches. Every shard replica
// embeds one; AHL's reference committee, which holds no data, embeds a bare
// Kernel and so exposes no ledger to capture.
type Replica struct {
	*Kernel
	KV     *store.KV
	Ledger *ledger.Chain
	// Results caches the results of executed batches by digest, so
	// retransmitted client requests are answered from the log (attack A1).
	Results map[types.Digest][]types.Value
	// LastSnap is the sequence of the newest durable snapshot (durable.go).
	LastSnap types.SeqNum

	Rec *wal.Recovered // consumed by Load
}

// NewReplica builds a kernel plus an empty store partition and ledger.
func NewReplica(opts Options) Replica {
	return Replica{
		Kernel:  New(opts),
		KV:      store.NewKV(),
		Ledger:  ledger.NewChain(opts.Shard),
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
	Tracker *pbft.CheckpointTracker
	// ExecNext is the executed-prefix watermark; Entries holds committed
	// batches above it by sequence.
	ExecNext types.SeqNum
	Entries  map[types.SeqNum]Queued
	ready    func(b *types.Batch, d types.Digest) bool
}

// NewSequential builds a sequentially executing replica. ready reports
// whether a committed cross-shard batch b, with digest d, may execute yet.
func NewSequential(opts Options, ready func(b *types.Batch, d types.Digest) bool) *Sequential {
	s := &Sequential{
		Replica: NewReplica(opts),
		Entries: make(map[types.SeqNum]Queued),
		ready:   ready,
	}
	s.Tracker = pbft.NewCheckpointTracker(opts.Config.CheckpointInterval, s.PBFT.MakeCheckpoint)
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
	s.Settle(b, d)
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

// Executed records an executed block (Record) and cuts a snapshot every
// CheckpointInterval executed sequences.
func (s *Sequential) Executed(seq types.SeqNum, primary types.NodeID, d types.Digest, b *types.Batch, results []types.Value) {
	s.Record(seq, primary, d, b, results)
	s.Cut(seq, types.Digest{}, nil)
}
