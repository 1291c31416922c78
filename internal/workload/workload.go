// Package workload generates YCSB-style benchmark workloads (Section 8,
// "Benchmark"): read-modify-write transactions over an active set of
// records, batched by the client, with a configurable fraction of
// cross-shard transactions, a configurable number of involved shards per
// cross-shard transaction (consecutive shards, matching the paper's client
// behaviour), optional Zipfian skew, and optional remote-read dependencies
// that turn simple cst into complex cst (Section 8.8).
//
// The load-bearing invariant is seeded determinism: a Generator constructed
// with the same Config (including Seed) emits the same batch sequence,
// txn for txn, which is what makes harness runs reproducible, the chaos
// engine's fingerprints byte-stable across re-runs, and the pipelined
// determinism property (same arrivals, any PipelineDepth, identical blocks)
// testable at all. Every random draw flows from the Config seed; the
// package never reads the wall clock or global rand.
//
// Per-transaction IDs are (ClientID, monotonic seq), so replicas can
// deduplicate retransmissions and detect conflicting same-ID payloads
// (client-conflict evidence). BatchSize here is the *client request* size,
// and so the consensus batch size too: a primary proposes each client
// request as it arrived, never merging two.
//
// Protecting gates: workload_test.go pins shard targeting, involved-set
// shape, striping, and per-client ID monotonicity; chaos.TestSeedDeterminism
// fails on any nondeterministic draw introduced here.
package workload

import (
	"math/rand"

	"ringbft/internal/types"
)

// Config parameterizes a workload generator.
type Config struct {
	Shards         int     // z
	ActiveRecords  int     // records per shard (paper: 600k total)
	CrossShardPct  float64 // fraction of batches that are cross-shard [0,1]
	InvolvedShards int     // shards accessed by each cross-shard txn (>=2)
	BatchSize      int     // transactions per batch
	RemoteReads    int     // extra remote-read dependencies per txn (complex cst)
	Zipf           bool    // Zipfian key skew instead of uniform
	ZipfS          float64 // Zipf skew parameter (default 1.01)
	// Stripe restricts each client to a disjoint stripe of the record
	// space. The paper's 600k-record uniform workload has a ~0.25%
	// per-batch conflict rate; a time-compressed simulation over a smaller
	// table would otherwise see pathological lock contention that the
	// paper's regime never enters (see EXPERIMENTS.md).
	Stripe  bool
	Clients int // stripe count when Stripe is set
	Seed    int64
}

// Generator produces batches. Not safe for concurrent use; give each client
// goroutine its own Generator (seeded distinctly).
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    map[types.ClientID]uint64
	stripe map[types.ClientID]uint64 // per-client sequential stripe cursor
}

// New creates a Generator. Invalid fields are clamped to sane values.
func New(cfg Config) *Generator {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ActiveRecords < 16 {
		cfg.ActiveRecords = 16
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.InvolvedShards < 2 {
		cfg.InvolvedShards = 2
	}
	if cfg.InvolvedShards > cfg.Shards {
		cfg.InvolvedShards = cfg.Shards
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	g := &Generator{cfg: cfg, rng: rng, seq: make(map[types.ClientID]uint64), stripe: make(map[types.ClientID]uint64)}
	if cfg.Zipf {
		g.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.ActiveRecords-1))
	}
	return g
}

// recordIndex draws a record index in [0, ActiveRecords).
func (g *Generator) recordIndex() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return uint64(g.rng.Intn(g.cfg.ActiveRecords))
}

// keyAt returns a key owned by shard s for client c: the table is hash
// partitioned with key ≡ shard (mod z), matching store.KV.Preload. Under
// Stripe, the record index is confined to client c's stripe.
func (g *Generator) keyAt(c types.ClientID, s types.ShardID) types.Key {
	var idx uint64
	if g.cfg.Stripe && g.cfg.Clients > 1 {
		// Walk the client's stripe sequentially: consecutive batches touch
		// disjoint records, so a client's in-flight window never
		// self-conflicts (the paper's 600k-record uniform regime).
		stripe := uint64(g.cfg.ActiveRecords) / uint64(g.cfg.Clients)
		if stripe == 0 {
			stripe = 1
		}
		cur := g.stripe[c]
		g.stripe[c] = cur + 1
		idx = (uint64(c)%uint64(g.cfg.Clients))*stripe + cur%stripe
	} else {
		idx = g.recordIndex()
	}
	return types.Key(uint64(s) + idx*uint64(g.cfg.Shards))
}

// NextBatch generates one batch for client c. All transactions in a batch
// access the same involved-shard set (Section 7: "we expect each block to
// include all the transactions that access the same shards"). Whether the
// batch is cross-shard is a Bernoulli draw with probability CrossShardPct.
func (g *Generator) NextBatch(c types.ClientID) *types.Batch {
	cross := g.cfg.Shards > 1 && g.rng.Float64() < g.cfg.CrossShardPct
	var involved []types.ShardID
	if cross {
		involved = g.involvedSet()
	} else {
		involved = []types.ShardID{types.ShardID(g.rng.Intn(g.cfg.Shards))}
	}
	b := &types.Batch{Involved: involved, Txns: make([]types.Txn, 0, g.cfg.BatchSize)}
	for i := 0; i < g.cfg.BatchSize; i++ {
		b.Txns = append(b.Txns, g.nextTxn(c, involved))
	}
	return b
}

// involvedSet picks InvolvedShards consecutive shards starting at a random
// position — "our clients select consecutive shards in order to generate the
// workload" (Section 8.5) — then sorts them into ring order.
func (g *Generator) involvedSet() []types.ShardID {
	start := g.rng.Intn(g.cfg.Shards)
	k := g.cfg.InvolvedShards
	set := make([]types.ShardID, 0, k)
	for i := 0; i < k; i++ {
		set = append(set, types.ShardID((start+i)%g.cfg.Shards))
	}
	// Ring order = ascending identifiers (Section 3, "Ring Order").
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j] < set[j-1]; j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
	return set
}

// nextTxn builds one read-modify-write transaction touching exactly one
// key-value pair per involved shard ("if a transaction accesses three
// regions, then it accesses three key-value pairs", Section 8), plus
// RemoteReads extra read-only dependencies scattered over the involved set.
func (g *Generator) nextTxn(c types.ClientID, involved []types.ShardID) types.Txn {
	g.seq[c]++
	t := types.Txn{
		ID:    types.TxnID{Client: c, Seq: g.seq[c]},
		Delta: types.Value(g.rng.Intn(1000) + 1),
	}
	for _, s := range involved {
		k := g.keyAt(c, s)
		t.Reads = append(t.Reads, k)
		t.Writes = append(t.Writes, k)
	}
	for i := 0; i < g.cfg.RemoteReads; i++ {
		s := involved[g.rng.Intn(len(involved))]
		t.Reads = append(t.Reads, g.keyAt(c, s))
	}
	return t
}
