package host

import (
	"strconv"
	"time"

	"ringbft/internal/metrics"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// Obs bundles a host's optional observability wiring: the lifecycle tracer
// plus registry handles. Nil when neither a registry nor a tracer was
// supplied; every method tolerates a nil receiver so call sites stay
// unconditional. Pure side effects: no protocol behaviour depends on it.
type Obs struct {
	tr          *trace.Tracer
	phases      [16]*metrics.Counter
	viewChanges *metrics.Counter
	execTxns    *metrics.Counter
	retransmits *metrics.Counter
	queueDepth  *metrics.Gauge
	evRecords   *metrics.Gauge
}

// NewObs registers a host's series on reg, labelled by shard and replica
// index and named after prefix: <prefix>_view_changes_total,
// <prefix>_executed_txns_total, <prefix>_retransmits_total,
// <prefix>_queue_depth, <prefix>_evidence_records, plus the shared
// pbft_phase_transitions_total family.
func NewObs(reg *metrics.Registry, tr *trace.Tracer, prefix string, shard types.ShardID, self types.NodeID) *Obs {
	if reg == nil && tr == nil {
		return nil
	}
	o := &Obs{tr: tr}
	if reg == nil {
		return o
	}
	s := strconv.Itoa(int(shard))
	i := strconv.Itoa(self.Index)
	lbl := []string{"shard", s, "replica", i}
	o.viewChanges = reg.Counter(prefix+"_view_changes_total", lbl...)
	o.execTxns = reg.Counter(prefix+"_executed_txns_total", lbl...)
	o.retransmits = reg.Counter(prefix+"_retransmits_total", lbl...)
	o.queueDepth = reg.Gauge(prefix+"_queue_depth", lbl...)
	o.evRecords = reg.Gauge(prefix+"_evidence_records", lbl...)
	for _, p := range []trace.Phase{
		trace.PhasePrePrepare, trace.PhasePrepare, trace.PhaseCommit,
		trace.PhaseExecute, trace.PhaseReply, trace.PhaseViewChange,
	} {
		o.phases[p] = reg.Counter("pbft_phase_transitions_total",
			"shard", s, "replica", i, "phase", p.String())
	}
	return o
}

// phase is the pbft OnPhase sink; shard is fixed per node at wiring time.
func (o *Obs) phase(shard types.ShardID) func(types.SeqNum, trace.Phase, time.Time) {
	if o == nil {
		return nil
	}
	return func(seq types.SeqNum, ph trace.Phase, at time.Time) {
		o.observe(at, shard, uint64(seq), ph)
	}
}

func (o *Obs) observe(at time.Time, shard types.ShardID, seq uint64, ph trace.Phase) {
	if o == nil {
		return
	}
	if o.tr != nil {
		o.tr.Record(at, int(shard), seq, ph)
	}
	if int(ph) < len(o.phases) && o.phases[ph] != nil {
		o.phases[ph].Inc()
	}
}

func (o *Obs) executed(n int) {
	if o != nil && o.execTxns != nil {
		o.execTxns.Add(int64(n))
	}
}

func (o *Obs) viewChanged() {
	if o != nil && o.viewChanges != nil {
		o.viewChanges.Inc()
	}
}

func (o *Obs) retransmit() {
	if o != nil && o.retransmits != nil {
		o.retransmits.Inc()
	}
}

func (o *Obs) sample(queue, evidence int) {
	if o == nil || o.queueDepth == nil {
		return
	}
	o.queueDepth.Set(int64(queue))
	o.evRecords.Set(int64(evidence))
}
