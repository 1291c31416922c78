package main

import "time"

// Fixed shape of every run (ISSUE 12): ringbft, 3 shards × 4 replicas
// (f=1), consensus batches of up to 50 txns, pipeline depth 8, client
// requests of 10 txns so the adaptive batcher has something to merge,
// crypto on, serial exec/verify, the harness' default timers.
const (
	shards        = 3
	replicasPer   = 4
	batchSize     = 50
	pipelineDepth = 8
	clientBatch   = 10
	localTimeout  = 400 * time.Millisecond
	remoteTimeout = 800 * time.Millisecond
	transmitTO    = 1500 * time.Millisecond
	wanScale      = 0.05 // simnet.WANLatency compression
	clientID      = 1
	replayBatches = 200 // batches the traced run replays through the leaf layers
)

// workload is one named traffic mix. The names are final: BENCHMARK.json,
// the README and every later paired comparison refer to them.
type workload struct {
	name     string
	why      string
	tcp      bool    // loopback tcpnet instead of simnet
	crossPct float64 // share of cross-shard requests (all 3 shards involved)
	zipf     bool
	records  int  // records preloaded per shard
	durable  bool // WAL + snapshots on wal.MemFS
	rate     float64
	// rate is the offered load in txn/s of the open loop; 0 selects the
	// closed loop with window requests outstanding.
	window int
}

var workloads = []workload{
	{
		name: "single", records: 4096, rate: 4000,
		why: "Intra-shard path alone at light load: pbft rounds, pairwise MACs, propose queue and batcher, execute; bypasses ring rotation, lock queueing, gob and the WAL, so changes there must not move it.",
	},
	{
		name: "cross", crossPct: 1, records: 4096, rate: 400,
		why: "The paper's contribution: Forward/Execute rotations over all 3 shards, Ed25519 certificates, locks held across rotations; uses pbft, store and crypto differently from single.",
	},
	{
		name: "tcp_mixed", tcp: true, crossPct: 0.3, records: 65536, durable: true, rate: 400,
		why: "Loopback TCP, 16x state, WAL on MemFS: the only workload where gob, framing, writer goroutines, WAL append/snapshot and the O(state) checkpoint digest do real work.",
	},
	{
		name: "saturate", crossPct: 0.3, zipf: true, records: 4096, window: 32,
		why: "Closed loop, 32 requests outstanding, Zipf keys: goodput is the capacity of the host; the pipeline window and the lock queue are loaded, so batcher, pipeline and host-kernel work shows here.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric of BENCHMARK.json. bound is the relative
// regression bound of an end-to-end metric (0 for per-layer metrics).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is the source of truth for the end-to-end metrics; bench_test.go
// checks that BENCHMARK.json says the same. One bound per metric covers all
// four workloads, so each is the widest any workload needs; on the shared
// two-vCPU host the spreads were measured on (README, spread table) that is
// the contract's cap for all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_tps", "txn/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_txn", "us/txn", "lower", 0.25},
}

// handleKinds are the HandleMessage/HandleTick call classes the traced loop
// times separately; kindOther is timed into busy time but not reported.
var handleKinds = [...]string{
	"client_request", "preprepare", "prepare", "commit",
	"checkpoint", "forward", "execute", "tick", "other",
}

const (
	kindClientRequest = iota
	kindPrePrepare
	kindPrepare
	kindCommit
	kindCheckpoint
	kindForward
	kindExecute
	kindTick
	kindOther
	numKinds
)
