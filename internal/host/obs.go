package host

import (
	"strconv"
	"time"

	"ringbft/internal/metrics"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Obs is a host's one observability sink. Every event a host counts is
// counted once, here: the post-run accessors (ViewChangeCount, a protocol's
// Stats) read the same counter that, with a registry, is the /metrics
// series. Without a registry each instrument is private to the host — no
// registry is built behind the caller's back. Pure side effects: no protocol
// behaviour depends on it. A Kernel's Obs is never nil.
type Obs struct {
	reg    *metrics.Registry
	tr     *trace.Tracer
	prefix string
	lbl    []string // shard and replica index
	shard  types.ShardID

	ViewChanges    *metrics.Counter
	Retransmits    *metrics.Counter
	DurErrors      *metrics.Counter
	StateTransfers *metrics.Counter
	StateRequests  *metrics.Counter
	ExecutedTxns   *metrics.Counter
	ExecutedCross  *metrics.Counter

	// clamped counts the drain passes whose window the backpressure clamp
	// shrank to one slot.
	clamped    *metrics.Counter
	queueDepth *metrics.Gauge
	inflight   *metrics.Gauge
	// execLag is the newest stable checkpoint minus the executed
	// watermark: how far behind its shard's certified state this replica
	// is.
	execLag   *metrics.Gauge
	awaiting  *metrics.Gauge
	evRecords *metrics.Gauge

	// phases[p] counts lifecycle transitions of phase p (registry only).
	phases [16]*metrics.Counter
	wal    wal.Observer
}

// tracedPhases are the lifecycle phases a host can emit, registered eagerly
// so /metrics shows the full family from startup.
var tracedPhases = []trace.Phase{
	trace.PhasePrePrepare, trace.PhasePrepare, trace.PhaseCommit,
	trace.PhaseForward, trace.PhaseExecute, trace.PhaseReply,
	trace.PhaseViewChange, trace.PhaseStateTransfer,
}

// NewObs builds a host's sink. With a registry its series are labelled by
// shard and replica index and named after prefix:
// <prefix>_view_changes_total, _forward_retransmits_total,
// _durability_errors_total, _state_transfers_total,
// _state_requests_total, _executed_txns_total,
// _executed_cross_txns_total, _pipeline_clamped_total,
// _propose_queue_depth, _inflight_proposals, _awaiting_proposals,
// _evidence_records, _exec_lag, plus the shared
// pbft_phase_transitions_total, wal_fsync_seconds and
// wal_segments_gced_total families. tr, when non-nil, receives lifecycle
// events stamped with the host clock.
func NewObs(reg *metrics.Registry, tr *trace.Tracer, prefix string, shard types.ShardID, self types.NodeID) *Obs {
	s := strconv.Itoa(int(shard))
	i := strconv.Itoa(self.Index)
	o := &Obs{reg: reg, tr: tr, prefix: prefix, lbl: []string{"shard", s, "replica", i}, shard: shard}
	o.ViewChanges = o.Counter("view_changes_total")
	o.Retransmits = o.Counter("forward_retransmits_total")
	o.DurErrors = o.Counter("durability_errors_total")
	o.StateTransfers = o.Counter("state_transfers_total")
	o.StateRequests = o.Counter("state_requests_total")
	o.ExecutedTxns = o.Counter("executed_txns_total")
	o.ExecutedCross = o.Counter("executed_cross_txns_total")
	o.clamped = o.Counter("pipeline_clamped_total")
	o.queueDepth = o.Gauge("propose_queue_depth")
	o.inflight = o.Gauge("inflight_proposals")
	o.awaiting = o.Gauge("awaiting_proposals")
	o.evRecords = o.Gauge("evidence_records")
	o.execLag = o.Gauge("exec_lag")
	gced := o.counter("wal_segments_gced_total")
	o.wal = wal.Observer{
		Fsync: o.histogram("wal_fsync_seconds").Observe,
		GC:    func(removed int) { gced.Add(int64(removed)) },
	}
	if reg != nil {
		for _, p := range tracedPhases {
			o.phases[p] = reg.Counter("pbft_phase_transitions_total",
				"shard", s, "replica", i, "phase", p.String())
		}
	}
	return o
}

// Counter returns the host's counter <prefix>_name: the registry series,
// or a private counter when there is no registry (which builds no name).
func (o *Obs) Counter(name string) *metrics.Counter {
	if o.reg == nil {
		return new(metrics.Counter)
	}
	return o.reg.Counter(o.prefix+"_"+name, o.lbl...)
}

// Gauge returns the host's gauge <prefix>_name (see Counter).
func (o *Obs) Gauge(name string) *metrics.Gauge {
	if o.reg == nil {
		return new(metrics.Gauge)
	}
	return o.reg.Gauge(o.prefix+"_"+name, o.lbl...)
}

// Histogram returns the host's histogram <prefix>_name (see Counter).
func (o *Obs) Histogram(name string) *metrics.Histogram {
	return o.histogram(o.prefix + "_" + name)
}

func (o *Obs) counter(full string) *metrics.Counter {
	if o.reg == nil {
		return new(metrics.Counter)
	}
	return o.reg.Counter(full, o.lbl...)
}

func (o *Obs) histogram(full string) *metrics.Histogram {
	if o.reg == nil {
		return metrics.NewHistogram()
	}
	return o.reg.Histogram(full, o.lbl...)
}

// Exposed reports whether a registry exposes this sink's series: a
// measurement that costs a clock read is taken only then.
func (o *Obs) Exposed() bool { return o.reg != nil }

// traced reports whether lifecycle events go anywhere.
func (o *Obs) traced() bool { return o.tr != nil || o.reg != nil }

// phaseSink is the pbft OnPhase hook: nil unless events go somewhere, so
// the engine reads no clock for them.
func (o *Obs) phaseSink() func(types.SeqNum, trace.Phase, time.Time) {
	if !o.traced() {
		return nil
	}
	return func(seq types.SeqNum, ph trace.Phase, at time.Time) { o.record(at, seq, ph) }
}

func (o *Obs) record(at time.Time, seq types.SeqNum, ph trace.Phase) {
	if o.tr != nil {
		o.tr.Record(at, int(o.shard), uint64(seq), ph)
	}
	if int(ph) < len(o.phases) && o.phases[ph] != nil {
		o.phases[ph].Inc()
	}
}

// Executed counts the transactions of one executed batch.
func (o *Obs) Executed(b *types.Batch) {
	o.ExecutedTxns.Add(int64(len(b.Txns)))
	if b.IsCrossShard() {
		o.ExecutedCross.Add(int64(len(b.Txns)))
	}
}

func (o *Obs) sample(queue, inflight, awaiting, evidence int, lag types.SeqNum) {
	o.execLag.Set(int64(lag))
	o.queueDepth.Set(int64(queue))
	o.inflight.Set(int64(inflight))
	o.awaiting.Set(int64(awaiting))
	o.evRecords.Set(int64(evidence))
}
