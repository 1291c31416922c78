// Package harness builds complete clusters (shards × replicas + clients) on
// the simulated WAN (package simnet), drives timed workloads against them,
// and collects the metrics the paper's evaluation reports: throughput
// (client-confirmed transactions per second), average latency, message and
// byte counts, view changes, and a throughput timeline for the
// primary-failure experiment (Fig 9).
package harness

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	obs "ringbft/internal/metrics"
	"ringbft/internal/simnet"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/workload"
)

// Protocol identifies the system under test.
type Protocol string

// The three sharding protocols of the paper's evaluation, plus the
// fully-replicated single-primary baselines of Figure 1 (which run one
// consensus group: Shards is forced to 1).
const (
	ProtoRingBFT Protocol = "ringbft"
	ProtoAHL     Protocol = "ahl"
	ProtoSharper Protocol = "sharper"

	ProtoPBFT     Protocol = "pbft"
	ProtoZyzzyva  Protocol = "zyzzyva"
	ProtoSBFT     Protocol = "sbft"
	ProtoPoE      Protocol = "poe"
	ProtoHotStuff Protocol = "hotstuff"
	ProtoRCC      Protocol = "rcc"
)

// Replicated reports whether p is a fully-replicated (unsharded) baseline.
func (p Protocol) Replicated() bool {
	_, ok := baselines[p]
	return ok
}

// Config describes one experiment run.
type Config struct {
	Protocol         Protocol
	Shards           int
	ReplicasPerShard int
	BatchSize        int
	// PipelineDepth bounds the primary's in-flight proposals across
	// sequence numbers (types.Config.PipelineDepth): 1 = lockstep, deeper
	// windows overlap PRE-PREPARE/PREPARE/COMMIT across sequences.
	// 0 keeps the types.DefaultConfig depth.
	PipelineDepth int

	CrossShardPct  float64 // fraction of cross-shard batches
	InvolvedShards int     // shards per cst
	RemoteReads    int     // complex-cst dependencies per txn (Fig 10)
	Records        int     // active records per shard
	Zipf           bool
	// StripeClients confines each client to a disjoint key stripe,
	// reproducing the paper's low-conflict uniform-YCSB regime at
	// compressed scale (see EXPERIMENTS.md, "workload contention").
	StripeClients bool

	Clients      int // concurrent clients
	ClientWindow int // outstanding batches per client

	Duration time.Duration // measurement window
	Warmup   time.Duration // excluded from metrics

	// Network model. LatencyScale compresses the 15-region GCP RTT matrix
	// (DESIGN.md §3); 0 selects a LAN-style fixed latency.
	LatencyScale float64
	// BandwidthBps bounds each node's NIC (egress and ingress serialize at
	// this rate); 0 = infinite. ProcTime is the per-message CPU cost at the
	// receiver — the capacity that quadratic protocols saturate first.
	BandwidthBps float64
	ProcTime     time.Duration

	// TCP runs the cluster over real loopback TCP sockets (internal/tcpnet)
	// instead of the simulated WAN: actual dials, the types wire codec
	// inside length-prefixed frames, write deadlines, and the transport's
	// redial/backoff machinery. The latency and bandwidth knobs above are
	// ignored (the kernel is the network model).
	TCP bool
	// TCPUnreachable (TCP fabric only) advertises an unreachable address
	// for the last replica of shard 0: every peer connection to it dies
	// without delivering a byte, for the whole run. The cluster must keep
	// committing regardless — the failure mode the synchronous-dial
	// transport bug hid.
	TCPUnreachable bool

	NoCrypto bool // ablation: skip MAC/DS computation
	// AllToAllForward disables RingBFT's linear communication primitive:
	// every replica Forwards to every replica of the next shard (ablation,
	// DESIGN.md §5).
	AllToAllForward bool
	Seed            int64

	// Timers (zero = defaults scaled to the latency model).
	LocalTimeout    time.Duration
	RemoteTimeout   time.Duration
	TransmitTimeout time.Duration

	// Durable backs every shard replica with the durability subsystem
	// (internal/wal) on a shared in-memory filesystem: WAL-logged blocks,
	// snapshots at stable checkpoints, crash recovery from disk.
	Durable bool
	// CheckpointInterval overrides the shard checkpoint cadence (0 keeps
	// the types.DefaultConfig value); recovery scenarios shorten it so
	// state transfer triggers within the measurement window.
	CheckpointInterval types.SeqNum

	// Instrument attaches a shared metrics registry and one lifecycle
	// tracer per node (internal/metrics, internal/trace) to the protocol
	// hosts that support them. Pure side effect: determinism guards assert
	// that seeded schedules are byte-identical with this on. The merged
	// events and a registry snapshot land in Result.
	Instrument bool

	// Nemesis, when non-nil, runs alongside the workload from the moment
	// the measurement window opens, injecting faults through its
	// Controller: CrashPrimaries and CrashRestart are the figures' faults,
	// and internal/chaos builds seeded schedules on top of this hook.
	// Setting it also routes every replica's outbound traffic through the
	// Byzantine interceptor so SetByzantine works mid-run.
	Nemesis Nemesis
	// CollectState captures each replica's commit state (chain, state
	// digest, executed results) into Result.Replicas after the run, for
	// cross-replica invariant checking.
	CollectState bool
}

// Result aggregates one run's metrics.
type Result struct {
	Config     Config
	Throughput float64 // committed txns/s over the measurement window
	AvgLatency time.Duration
	P50Latency time.Duration
	P99Latency time.Duration
	Txns       int64
	Batches    int64

	MsgsSent    int64
	MsgsDropped int64
	BytesSent   int64
	BytesCross  int64
	ViewChanges int64
	Retransmits int64
	// StateTransfers counts peer state-transfer installs across replicas
	// (recovery scenarios).
	StateTransfers int64
	// RecoveredNodes counts replicas that resumed from durable state
	// (snapshot and/or WAL) at any point of the run.
	RecoveredNodes int64

	// Timeline buckets committed txns per 100ms of the measurement window
	// (used by the Fig 9 series).
	Timeline []int64

	// Replicas holds each replica's captured commit state (CollectState
	// runs), for the chaos subsystem's cross-replica invariant checkers.
	Replicas []ReplicaState
	// NemesisLastHeal is the offset from measurement start of the nemesis'
	// final healing action (0 when no nemesis ran or nothing healed);
	// liveness checkers assert commits happen after it.
	NemesisLastHeal time.Duration

	// TraceEvents merges every node's lifecycle tracer chronologically
	// (Instrument runs only) — feed to trace.Breakdown / trace.Stalled.
	TraceEvents []trace.Event
	// MetricsText is the Prometheus-text snapshot of the run's registry
	// (Instrument runs only).
	MetricsText string
}

func (r Result) String() string {
	return fmt.Sprintf("%s z=%d n=%d cs=%.0f%%: %.0f txn/s, avg %.1fms, p99 %.1fms (%d txns, %d vc)",
		r.Config.Protocol, r.Config.Shards, r.Config.ReplicasPerShard,
		r.Config.CrossShardPct*100, r.Throughput,
		float64(r.AvgLatency)/float64(time.Millisecond),
		float64(r.P99Latency)/float64(time.Millisecond),
		r.Txns, r.ViewChanges)
}

// statProvider is implemented by nodes exposing protocol counters.
type statProvider interface {
	ViewChangeCount() int64
	RetransmitCount() int64
}

// cluster is one harness run's deployment: its Runtime plus what the
// run's closed-loop clients and nemesis need.
type cluster struct {
	cfg  Config
	rt   *Runtime
	topo *Topology // where clients send fresh and timed-out batches
	// byz holds each node's Byzantine mode (empty on non-nemesis runs,
	// where nodes send directly).
	byz map[types.NodeID]*atomic.Int32
	// reg/tracers are the Instrument-run observability sinks: one shared
	// registry, one tracer per node slot (a rebuilt node keeps its slot's).
	reg     *obs.Registry
	tracers []*trace.Tracer
}

func newCluster(cfg Config, topo *Topology) *cluster {
	cl := &cluster{cfg: cfg, topo: topo, byz: make(map[types.NodeID]*atomic.Int32)}
	if cfg.Instrument {
		cl.reg = obs.NewRegistry()
	}
	return cl
}

// Run executes one experiment and returns its metrics.
func Run(cfg Config) (Result, error) {
	applyDefaults(&cfg)
	cl, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	rt := cl.rt
	rt.Start()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	metrics := newMetrics()
	clientCtx, clientCancel := context.WithCancel(ctx)
	var cwg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			runClient(clientCtx, cl, types.ClientID(c+1), metrics)
		}(c)
	}

	time.Sleep(cfg.Warmup)
	metrics.startMeasuring()

	var ctl *Controller
	var nwg sync.WaitGroup
	if cfg.Nemesis != nil {
		ctl = &Controller{cl: cl, started: time.Now()}
		nwg.Add(1)
		go func() {
			defer nwg.Done()
			cfg.Nemesis(ctx, ctl)
		}()
	}

	time.Sleep(cfg.Duration)
	metrics.stopMeasuring()
	clientCancel()
	cwg.Wait()
	cancel()
	nwg.Wait()
	if err := rt.Close(); err != nil {
		return Result{}, err
	}

	res := metrics.result(cfg)
	if ctl != nil {
		if ctl.err != nil {
			return Result{}, ctl.err
		}
		res.NemesisLastHeal = ctl.lastHeal
	}
	for _, s := range rt.slots {
		n := s.node
		if cfg.CollectState {
			if st, ok := CaptureReplica(s.id, n); ok {
				res.Replicas = append(res.Replicas, st)
			}
		}
		if sp, ok := n.(statProvider); ok {
			res.ViewChanges += sp.ViewChangeCount()
			res.Retransmits += sp.RetransmitCount()
		}
		if tp, ok := n.(interface{ StateTransferCount() int64 }); ok {
			res.StateTransfers += tp.StateTransferCount()
		}
		if rp, ok := n.(interface{ Recovered() bool }); ok && rp.Recovered() {
			res.RecoveredNodes++
		}
	}
	rt.net.fillStats(&res)
	collectObservability(cl, &res)
	return res, nil
}

// collectObservability merges the per-node tracers and snapshots the
// registry into the result (Instrument runs only).
func collectObservability(cl *cluster, res *Result) {
	if !cl.cfg.Instrument {
		return
	}
	batches := make([][]trace.Event, len(cl.tracers))
	for i, t := range cl.tracers {
		batches[i] = t.Events()
	}
	res.TraceEvents = trace.Merge(batches...)
	if cl.reg != nil {
		res.MetricsText = cl.reg.Snapshot()
	}
}

func applyDefaults(cfg *Config) {
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoRingBFT
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.ReplicasPerShard <= 0 {
		cfg.ReplicasPerShard = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 50
	}
	if cfg.InvolvedShards <= 0 {
		cfg.InvolvedShards = cfg.Shards
	}
	if cfg.Records <= 0 {
		cfg.Records = 4096
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.ClientWindow <= 0 {
		cfg.ClientWindow = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 200 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LocalTimeout <= 0 {
		cfg.LocalTimeout = 400 * time.Millisecond
	}
	if cfg.RemoteTimeout <= 0 {
		cfg.RemoteTimeout = 800 * time.Millisecond
	}
	if cfg.TransmitTimeout <= 0 {
		cfg.TransmitTimeout = 1500 * time.Millisecond
	}
}

// typesConfig derives the shared protocol config.
func typesConfig(cfg Config) types.Config {
	tc := types.DefaultConfig(cfg.Shards, cfg.ReplicasPerShard)
	tc.BatchSize = cfg.BatchSize
	if cfg.PipelineDepth > 0 {
		tc.PipelineDepth = cfg.PipelineDepth
	}
	tc.LocalTimeout = cfg.LocalTimeout
	tc.RemoteTimeout = cfg.RemoteTimeout
	tc.TransmitTimeout = cfg.TransmitTimeout
	if cfg.CheckpointInterval > 0 {
		tc.CheckpointInterval = cfg.CheckpointInterval
	}
	if cfg.Durable {
		tc.DataDir = "data"
	}
	return tc
}

// buildNetwork assembles the simnet with the paper's region placement.
func buildNetwork(cfg Config) *simnet.Network {
	var lat simnet.LatencyModel = simnet.FixedLatency{D: 200 * time.Microsecond}
	if cfg.LatencyScale > 0 {
		lat = simnet.WANLatency{Scale: cfg.LatencyScale}
	}
	return simnet.New(simnet.Options{
		Latency: lat, Seed: cfg.Seed,
		NodeBps: cfg.BandwidthBps, ProcTime: cfg.ProcTime,
		InboxSize: 1 << 16,
	})
}

// metrics collects client-side completion samples.
type metrics struct {
	mu        sync.Mutex
	measuring atomic.Bool
	start     time.Time
	end       time.Time
	txns      int64
	batches   int64
	latencies []time.Duration
	timeline  []int64
}

func newMetrics() *metrics { return &metrics{} }

func (m *metrics) startMeasuring() {
	m.mu.Lock()
	m.start = time.Now()
	m.mu.Unlock()
	m.measuring.Store(true)
}

func (m *metrics) stopMeasuring() {
	m.measuring.Store(false)
	m.mu.Lock()
	m.end = time.Now()
	m.mu.Unlock()
}

func (m *metrics) record(txns int, latency time.Duration) {
	if !m.measuring.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txns += int64(txns)
	m.batches++
	m.latencies = append(m.latencies, latency)
	bucket := int(time.Since(m.start) / (100 * time.Millisecond))
	for len(m.timeline) <= bucket {
		m.timeline = append(m.timeline, 0)
	}
	m.timeline[bucket] += int64(txns)
}

func (m *metrics) result(cfg Config) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := m.end.Sub(m.start)
	if elapsed <= 0 {
		elapsed = cfg.Duration
	}
	res := Result{
		Config:   cfg,
		Txns:     m.txns,
		Batches:  m.batches,
		Timeline: append([]int64(nil), m.timeline...),
	}
	res.Throughput = float64(m.txns) / elapsed.Seconds()
	if len(m.latencies) > 0 {
		sort.Slice(m.latencies, func(i, j int) bool { return m.latencies[i] < m.latencies[j] })
		var sum time.Duration
		for _, l := range m.latencies {
			sum += l
		}
		res.AvgLatency = sum / time.Duration(len(m.latencies))
		res.P50Latency = m.latencies[len(m.latencies)/2]
		res.P99Latency = m.latencies[len(m.latencies)*99/100]
	}
	return res
}

// runClient drives one closed-loop client: keep ClientWindow batches in
// flight through a Client, timing each from its first send to its answer,
// and rebroadcast what waits longer than 2×LocalTimeout (attack A1).
func runClient(ctx context.Context, cl *cluster, id types.ClientID, m *metrics) {
	cfg := cl.cfg
	gen := workload.New(workload.Config{
		Shards:         cfg.Shards,
		ActiveRecords:  cfg.Records,
		CrossShardPct:  cfg.CrossShardPct,
		InvolvedShards: cfg.InvolvedShards,
		BatchSize:      cfg.BatchSize,
		RemoteReads:    cfg.RemoteReads,
		Zipf:           cfg.Zipf,
		Stripe:         cfg.StripeClients,
		Clients:        cfg.Clients,
		Seed:           cfg.Seed + int64(id)*7919,
	})
	ep := cl.rt.net.Attach(types.ClientNode(id), simnet.Region(int(id)%int(simnet.NumRegions)))
	c := NewClient(cl.topo, id)
	for i := 0; i < cfg.ClientWindow; i++ {
		ep.Send(c.Send(gen.NextBatch(id), time.Now()))
	}

	timeout := cfg.LocalTimeout * 2
	ticker := time.NewTicker(timeout / 2)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-ep.Inbox():
			if r := c.Deliver(msg); r != nil {
				m.record(len(r.Batch.Txns), time.Since(r.Started))
				ep.Send(c.Send(gen.NextBatch(id), time.Now()))
			}
		case <-ticker.C:
			for _, r := range c.Due(time.Now(), timeout) {
				for _, to := range cl.topo.Fallback(r.Batch) {
					ep.Send(to, r.Msg)
				}
			}
		}
	}
}
