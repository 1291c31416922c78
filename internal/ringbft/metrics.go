package ringbft

import (
	"strconv"

	"ringbft/internal/metrics"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// replicaMetrics is one replica's handle set on the process registry. The
// handles are resolved once at construction so hot paths pay a single
// atomic add. The plain Stats counters are kept unchanged — they are the
// post-run snapshot contract the harness and chaos checkers read — while
// these registry series are what live HTTP scrapes see.
type replicaMetrics struct {
	executedTxns   *metrics.Counter
	executedCross  *metrics.Counter
	execErrors     *metrics.Counter
	viewChanges    *metrics.Counter
	retransmits    *metrics.Counter
	remoteViews    *metrics.Counter
	stateTransfers *metrics.Counter
	durErrors      *metrics.Counter
	certVerifies   *metrics.Counter
	walGC          *metrics.Counter

	// Pipelined-consensus telemetry: coalescedReqs counts client requests
	// the adaptive batcher merged into larger proposals, pipelineClamped
	// counts propose passes where transport backpressure shrank the window
	// to one slot, and inflight samples the engine's pre-prepared-but-
	// uncommitted sequence count each tick.
	coalescedReqs   *metrics.Counter
	pipelineClamped *metrics.Counter
	inflight        *metrics.Gauge

	queueDepth *metrics.Gauge
	awaiting   *metrics.Gauge
	lockKeys   *metrics.Gauge
	evRecords  *metrics.Gauge

	forwardQuorum *metrics.Histogram
	walFsync      *metrics.Histogram

	// phases[p] counts pbft/ring lifecycle transitions of phase p.
	phases [16]*metrics.Counter
}

// tracedPhases are the lifecycle phases a replica host can emit; used to
// register the per-phase counters eagerly so /metrics shows the full
// family from startup.
var tracedPhases = []trace.Phase{
	trace.PhasePrePrepare, trace.PhasePrepare, trace.PhaseCommit,
	trace.PhaseForward, trace.PhaseExecute, trace.PhaseReply,
	trace.PhaseViewChange, trace.PhaseStateTransfer,
}

func newReplicaMetrics(reg *metrics.Registry, shard types.ShardID, self types.NodeID) *replicaMetrics {
	s := strconv.Itoa(int(shard))
	i := strconv.Itoa(self.Index)
	lbl := []string{"shard", s, "replica", i}
	m := &replicaMetrics{
		executedTxns:   reg.Counter("ringbft_executed_txns_total", lbl...),
		executedCross:  reg.Counter("ringbft_executed_cross_txns_total", lbl...),
		execErrors:     reg.Counter("ringbft_exec_errors_total", lbl...),
		viewChanges:    reg.Counter("ringbft_view_changes_total", lbl...),
		retransmits:    reg.Counter("ringbft_forward_retransmits_total", lbl...),
		remoteViews:    reg.Counter("ringbft_remote_views_total", lbl...),
		stateTransfers: reg.Counter("ringbft_state_transfers_total", lbl...),
		durErrors:      reg.Counter("ringbft_durability_errors_total", lbl...),
		certVerifies:   reg.Counter("ringbft_cert_verifications_total", lbl...),
		walGC:          reg.Counter("wal_segments_gced_total", lbl...),

		coalescedReqs:   reg.Counter("ringbft_coalesced_requests_total", lbl...),
		pipelineClamped: reg.Counter("ringbft_pipeline_clamped_total", lbl...),
		inflight:        reg.Gauge("ringbft_inflight_proposals", lbl...),

		queueDepth: reg.Gauge("ringbft_propose_queue_depth", lbl...),
		awaiting:   reg.Gauge("ringbft_awaiting_proposals", lbl...),
		lockKeys:   reg.Gauge("ringbft_lock_table_keys", lbl...),
		evRecords:  reg.Gauge("ringbft_evidence_records", lbl...),

		forwardQuorum: reg.Histogram("ringbft_forward_quorum_seconds", lbl...),
		walFsync:      reg.Histogram("wal_fsync_seconds", lbl...),
	}
	for _, p := range tracedPhases {
		m.phases[p] = reg.Counter("pbft_phase_transitions_total",
			"shard", s, "replica", i, "phase", p.String())
	}
	return m
}

// phase counts one lifecycle transition.
func (m *replicaMetrics) phase(p trace.Phase) {
	if m == nil {
		return
	}
	if int(p) < len(m.phases) && m.phases[p] != nil {
		m.phases[p].Inc()
	}
}

// walObserver adapts the handle set to the WAL telemetry hooks.
func (m *replicaMetrics) walObserver() wal.Observer {
	return wal.Observer{
		Fsync: m.walFsync.Observe,
		GC:    func(removed int) { m.walGC.Add(int64(removed)) },
	}
}
