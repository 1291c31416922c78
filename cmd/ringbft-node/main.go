// Command ringbft-node runs one RingBFT replica over real TCP (stdlib net).
// All replicas of a deployment share a JSON topology file and a key seed;
// node identity is (shard, index).
//
// Topology file format:
//
//	{
//	  "shards": 2,
//	  "replicasPerShard": 4,
//	  "records": 4096,
//	  "seed": 42,
//	  "nodes": {"0/0": "127.0.0.1:7000", "0/1": "127.0.0.1:7001", ...}
//	}
//
// Example (2 shards × 4 replicas on one machine):
//
//	for s in 0 1; do for i in 0 1 2 3; do
//	  ringbft-node -topology cluster.json -shard $s -index $i &
//	done; done
//	ringbft-client -topology cluster.json -txns 100
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ringbft/internal/evidence"
	"ringbft/internal/harness"
	"ringbft/internal/metrics"
	"ringbft/internal/ringbft"
	"ringbft/internal/tcpnet"
	"ringbft/internal/topology"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

func main() {
	var (
		topoPath = flag.String("topology", "cluster.json", "path to the shared topology file")
		shard    = flag.Int("shard", 0, "this replica's shard")
		index    = flag.Int("index", 0, "this replica's index within the shard")

		dataDir = flag.String("datadir", "", "durability directory (WAL + snapshots); empty = in-memory only")
		fsync   = flag.Duration("fsync-interval", 5*time.Millisecond,
			"WAL group-commit interval (0 = fsync every append)")
		snapEvery = flag.Uint64("snapshot-interval", 0,
			"sequences between snapshots (0 = checkpoint interval)")

		pipelineDepth = flag.Int("pipeline-depth", 0,
			"max proposals in flight per primary across sequence numbers; 1 = lockstep (0 = default 8)")

		outboxDepth = flag.Int("outbox-depth", 0,
			"per-peer outbound queue depth (0 = transport default)")
		dialTimeout = flag.Duration("dial-timeout", 0,
			"TCP connect timeout per attempt (0 = transport default)")
		writeTimeout = flag.Duration("write-timeout", 0,
			"TCP write/flush deadline; a stalled peer connection is torn down past it (0 = transport default)")
		metricsAddr = flag.String("metrics-addr", "",
			"HTTP listen address for /metrics (Prometheus text) and /debug/pprof; empty = disabled")
	)
	flag.Parse()

	topo, err := topology.Load(*topoPath)
	if err != nil {
		log.Fatalf("ringbft-node: %v", err)
	}
	self := types.ReplicaNode(types.ShardID(*shard), *index)
	addr, ok := topo.Nodes[topology.Key(*shard, *index)]
	if !ok {
		log.Fatalf("ringbft-node: %v not in topology", self)
	}

	cfg := types.DefaultConfig(topo.Shards, topo.ReplicasPerShard)
	cfg.DataDir = *dataDir
	cfg.FsyncInterval = *fsync
	cfg.SnapshotInterval = types.SeqNum(*snapEvery)
	if *pipelineDepth != 0 {
		cfg.PipelineDepth = *pipelineDepth
	}
	cfg.OutboxDepth = *outboxDepth
	cfg.DialTimeout = *dialTimeout
	cfg.WriteTimeout = *writeTimeout
	if err := cfg.Validate(); err != nil {
		log.Fatalf("ringbft-node: %v", err)
	}

	transport, err := tcpnet.New(self, addr, topo.Addrs(), tcpnet.FromConfig(cfg))
	if err != nil {
		log.Fatalf("ringbft-node: %v", err)
	}
	defer transport.Close()

	layout, err := harness.NewTopology(harness.ProtoRingBFT, topo.Shards, topo.ReplicasPerShard, topo.Seed, false, nil)
	if err != nil {
		log.Fatalf("ringbft-node: %v", err)
	}
	// The registry is the node's single source of observable state: the
	// replica, WAL, and transport all register on it; /metrics scrapes it
	// live and the shutdown summary is one snapshot of it.
	reg := metrics.NewRegistry()
	tr := trace.New(0)
	transport.RegisterMetrics(reg)
	hooks := harness.Hooks{
		Send: transport.Send,
		// The pipelined primary narrows its window when the transport's
		// writers fall behind the send rate (outbox occupancy).
		Backpressure: transport.Backlog,
		Metrics:      reg, Tracer: tr,
	}
	dir := ringbft.ReplicaDir(cfg.DataDir, self)
	if cfg.DataDir != "" {
		hooks.FS = wal.OSFS{}
		// Misbehavior evidence shares the data dir so accusations survive
		// restarts — a crash must not launder a recorded equivocation.
		ev, err := evidence.Open(hooks.FS, filepath.Join(dir, "evidence"))
		if err != nil {
			log.Fatalf("ringbft-node: open evidence log: %v", err)
		}
		defer ev.Close()
		hooks.Evidence = ev
	}
	node, err := layout.Build(cfg, self, topo.Records, hooks)
	if err != nil {
		log.Fatalf("ringbft-node: %v", err)
	}
	r := node.(*ringbft.Replica)
	defer r.Close()
	if r.Recovered() {
		st := r.Stats()
		log.Printf("ringbft-node %v recovered from %s: kmax %d, ledger height %d", self, dir, st.KMax, st.LedgerHeight)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		cancel()
	}()

	if *metricsAddr != "" {
		srv := &http.Server{Addr: *metricsAddr, Handler: debugMux(reg, tr)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("ringbft-node %v metrics server: %v", self, err)
			}
		}()
		defer srv.Close()
		log.Printf("ringbft-node %v metrics on http://%s/metrics", self, *metricsAddr)
	}

	log.Printf("ringbft-node %v listening on %s (z=%d, n=%d, f=%d)",
		self, transport.Addr(), topo.Shards, topo.ReplicasPerShard, cfg.F())
	r.Run(ctx, transport.Inbox())
	st := r.Stats()
	log.Printf("ringbft-node %v stopped: ledger height %d, kmax %d", self, st.LedgerHeight, st.KMax)
	// Accountability: everything this replica can prove about peer or client
	// misbehavior, deduplicated. "evidence: none" is the healthy-run output.
	log.Printf("ringbft-node %v %s", self, r.Evidence().Summary())
	// One canonical shutdown report: the same registry /metrics scrapes —
	// consensus counters, WAL latency, and the transport's drop/redial
	// taxonomy — rendered once, in one format, instead of a hand-maintained
	// printf per subsystem.
	fmt.Print(reg.Snapshot())
}

// debugMux serves the observability endpoints on a dedicated mux (never the
// DefaultServeMux, which net/http/pprof pollutes globally): Prometheus-text
// metrics, pprof profiles, and the consensus lifecycle trace dump.
func debugMux(reg *metrics.Registry, tr *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		events := tr.Events()
		fmt.Fprintf(w, "# %d events buffered, %d overwritten\n", len(events), tr.Overwritten())
		for _, e := range events {
			fmt.Fprintf(w, "%s shard=%d seq=%d %s %s\n",
				e.At.Format(time.RFC3339Nano), e.Shard, e.Seq, e.Phase, e.Note)
		}
		bd := trace.Breakdown(events)
		for _, ph := range []trace.Phase{trace.PhasePrePrepare, trace.PhasePrepare, trace.PhaseCommit, trace.PhaseExecute} {
			ds := bd[ph]
			fmt.Fprintf(w, "# breakdown %s: n=%d p50=%s p99=%s\n",
				ph, len(ds), trace.Quantile(ds, 0.50), trace.Quantile(ds, 0.99))
		}
	})
	return mux
}
