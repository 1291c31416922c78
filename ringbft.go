// Package ringbft is the public API of this repository: a from-scratch Go
// implementation of RingBFT — Resilient Consensus over Sharded Ring Topology
// (Rahnama, Gupta, Sogani, Krishnan, Sadoghi; EDBT 2022) — together with the
// substrates the paper's evaluation depends on: an intra-shard PBFT engine,
// a simulated 15-region WAN, per-shard blockchains, a YCSB-style workload
// generator, the AHL and Sharper sharding baselines, and the single-primary
// baselines of Figure 1 (Zyzzyva, SBFT, PoE, HotStuff, RCC).
//
// Two entry points:
//
//   - Cluster embeds a complete RingBFT deployment in-process: shards of
//     replicas over the simulated network, with synchronous Submit for
//     transactions. This is what applications and the examples use.
//
//   - RunExperiment / the Fig* functions drive the benchmark harness that
//     regenerates every figure of the paper's evaluation (see EXPERIMENTS.md
//     and cmd/ringbft-bench).
package ringbft

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ringbft/internal/harness"
	"ringbft/internal/ledger"
	"ringbft/internal/ringbft"
	"ringbft/internal/simnet"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Re-exported core types, so users of the library never import internal
// packages.
type (
	// Txn is a deterministic read-modify-write transaction (known
	// read/write sets, Section 3 of the paper).
	Txn = types.Txn
	// TxnID identifies a transaction.
	TxnID = types.TxnID
	// Key is a record key; ownership is hash-partitioned across shards.
	Key = types.Key
	// Value is a record value.
	Value = types.Value
	// ShardID identifies a shard; ring order is ascending ShardID.
	ShardID = types.ShardID
	// ClientID identifies a client.
	ClientID = types.ClientID
	// SeqNum is a consensus sequence number within one shard's log.
	SeqNum = types.SeqNum
	// Digest is a SHA-256 batch/message digest.
	Digest = types.Digest
	// Batch is the unit of consensus.
	Batch = types.Batch
	// Block is one block of a shard's partial blockchain.
	Block = ledger.Block

	// ExperimentConfig parameterizes one benchmark run.
	ExperimentConfig = harness.Config
	// ExperimentResult carries one benchmark run's metrics.
	ExperimentResult = harness.Result
	// Protocol selects the system under test in experiments.
	Protocol = harness.Protocol
	// Figure is a reproduced plot (series of throughput/latency points).
	Figure = harness.Figure
	// Profile scales an experiment suite (Quick vs Full).
	Profile = harness.Profile
)

// Experiment protocols.
const (
	RingBFT  = harness.ProtoRingBFT
	AHL      = harness.ProtoAHL
	Sharper  = harness.ProtoSharper
	PBFT     = harness.ProtoPBFT
	Zyzzyva  = harness.ProtoZyzzyva
	SBFT     = harness.ProtoSBFT
	PoE      = harness.ProtoPoE
	HotStuff = harness.ProtoHotStuff
	RCC      = harness.ProtoRCC
)

// Experiment profiles.
var (
	Quick = harness.Quick
	Full  = harness.Full
)

// RunExperiment executes one benchmark configuration and returns metrics.
func RunExperiment(cfg ExperimentConfig) (ExperimentResult, error) { return harness.Run(cfg) }

// Figure generators (one per paper figure; see DESIGN.md §4).
var (
	Fig1                  = harness.Fig1
	Fig8Shards            = harness.Fig8Shards
	Fig8Replicas          = harness.Fig8Replicas
	Fig8CrossRate         = harness.Fig8CrossRate
	Fig8BatchSize         = harness.Fig8BatchSize
	Fig8Involved          = harness.Fig8Involved
	Fig8Clients           = harness.Fig8Clients
	Fig9                  = harness.Fig9
	Fig9Recovery          = harness.Fig9Recovery
	Fig10                 = harness.Fig10
	AblationLinearForward = harness.AblationLinearForward
	AblationCrypto        = harness.AblationCrypto
)

// ClusterConfig shapes an embedded RingBFT deployment.
type ClusterConfig struct {
	Shards           int // number of shards (ring length); default 3
	ReplicasPerShard int // n per shard, n >= 3f+1; default 4
	Records          int // records preloaded per shard; default 4096

	// LatencyScale > 0 runs over the 15-region WAN model compressed by the
	// given factor; 0 uses a uniform sub-millisecond LAN latency.
	LatencyScale float64
	// NoCrypto disables MACs and signatures (testing only).
	NoCrypto bool
	Seed     int64

	// SubmitTimeout bounds one synchronous Submit (default 10s).
	SubmitTimeout time.Duration

	// PipelineDepth bounds how many proposals each primary keeps in flight
	// across sequence numbers (types.Config.PipelineDepth): 1 is lockstep,
	// deeper windows overlap PRE-PREPARE/PREPARE/COMMIT rounds. Execution
	// order is unaffected. 0 = default 8.
	PipelineDepth int

	// Durable backs every replica with the durability subsystem
	// (internal/wal): a segmented write-ahead log plus snapshots at stable
	// checkpoints, so KillReplica / RestartReplica recover real state from
	// disk. DataDir selects the on-disk location; empty keeps everything
	// on an in-process filesystem (hermetic, still restartable).
	Durable bool
	DataDir string
	// CheckpointInterval overrides the checkpoint cadence (0 = default 64).
	// Shorter intervals bound recovery gaps and speed up state transfer
	// for restart demos.
	CheckpointInterval SeqNum
}

// Cluster is an embedded RingBFT deployment: z shards × n replicas running
// over the in-process network, plus a client port for Submit.
type Cluster struct {
	cfg  ClusterConfig
	tcfg types.Config
	fs   wal.FS // where Durable replicas keep their data directories
	net  *simnet.Network
	topo *harness.Topology
	rt   *harness.Runtime

	// Submit's clients. A Submit takes an idle one or attaches a new one,
	// and returns it when done, so the cluster holds only as many client
	// endpoints as it ever had concurrent Submits.
	mu      sync.Mutex
	idle    []*client
	clients int
}

// client is one of Submit's client identities: its endpoint and its
// request table, whose view hint outlives each Submit.
type client struct {
	id   types.ClientID
	ep   *simnet.Endpoint
	reqs *harness.Client
	seq  uint64 // the last TxnID.Seq stamped; reusing one would read as a client conflict
}

// clientRebroadcast is how long Submit waits on the contacted replica before
// broadcasting to the whole shard. Embedded clusters serve interactive
// Submits, so it is short: recovery latency is then dominated by the view
// change, not the client timer.
const clientRebroadcast = 500 * time.Millisecond

// NewCluster builds (but does not start) a RingBFT cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.ReplicasPerShard <= 0 {
		cfg.ReplicasPerShard = 4
	}
	if cfg.Records <= 0 {
		cfg.Records = 4096
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 10 * time.Second
	}
	tcfg := types.DefaultConfig(cfg.Shards, cfg.ReplicasPerShard)
	if cfg.PipelineDepth > 0 {
		tcfg.PipelineDepth = cfg.PipelineDepth
	}
	if cfg.CheckpointInterval > 0 {
		tcfg.CheckpointInterval = cfg.CheckpointInterval
	}
	var fs wal.FS
	if cfg.Durable {
		tcfg.DataDir, fs = cfg.DataDir, wal.OSFS{}
		if cfg.DataDir == "" {
			tcfg.DataDir, fs = "data", wal.NewMemFS()
		}
	}
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := harness.NewTopology(harness.ProtoRingBFT, cfg.Shards, cfg.ReplicasPerShard, cfg.Seed, cfg.NoCrypto, nil)
	if err != nil {
		return nil, err
	}

	var lat simnet.LatencyModel = simnet.FixedLatency{D: 200 * time.Microsecond}
	if cfg.LatencyScale > 0 {
		lat = simnet.WANLatency{Scale: cfg.LatencyScale}
	}
	net := simnet.New(simnet.Options{Latency: lat, Seed: cfg.Seed})
	rt, err := harness.Deploy(harness.SimFabric{Net: net}, topo, tcfg, fs, cfg.Records, nil)
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, tcfg: tcfg, fs: fs, net: net, topo: topo, rt: rt}, nil
}

// Start launches every replica's event loop.
func (c *Cluster) Start() { c.rt.Start() }

// Stop terminates a started cluster; before Start it does nothing.
// Idempotent.
func (c *Cluster) Stop() {
	if c.rt.Started() {
		// A failed final WAL sync has no caller to report to; it costs at
		// most the group-commit tail, which recovery treats like any crash.
		_ = c.rt.Close()
	}
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// F returns the per-shard fault bound f.
func (c *Cluster) F() int { return c.tcfg.F() }

// OwnerShard returns the shard owning key k.
func (c *Cluster) OwnerShard(k Key) ShardID { return types.OwnerShard(k, c.cfg.Shards) }

// KeyOf returns the record key with index idx on shard s (the inverse of the
// hash partitioning used by the preloaded table).
func (c *Cluster) KeyOf(s ShardID, idx uint64) Key {
	return Key(uint64(s) + idx*uint64(c.cfg.Shards))
}

// ErrTimeout is returned when a Submit misses its deadline.
var ErrTimeout = errors.New("ringbft: submit timed out")

// Submit runs one batch of transactions through consensus and returns their
// results once f+1 matching replica responses arrive. Transaction IDs are
// stamped by the cluster; the involved-shard set is derived from the
// transactions' read/write sets. Safe for concurrent use — concurrent calls
// act as independent clients.
func (c *Cluster) Submit(ctx context.Context, txns ...Txn) ([]Value, error) {
	if !c.rt.Started() {
		return nil, errors.New("ringbft: cluster not started")
	}
	if len(txns) == 0 {
		return nil, errors.New("ringbft: empty batch")
	}
	involvedSet := make(map[ShardID]struct{})
	for i := range txns {
		for _, s := range txns[i].InvolvedShards(c.cfg.Shards) {
			involvedSet[s] = struct{}{}
		}
	}
	involved := make([]ShardID, 0, len(involvedSet))
	for s := range involvedSet {
		involved = append(involved, s)
	}
	sort.Slice(involved, func(i, j int) bool { return involved[i] < involved[j] })
	if len(involved) == 0 {
		return nil, errors.New("ringbft: transactions touch no keys")
	}

	cl := c.takeClient()
	defer c.putClient(cl)
	for i := range txns {
		cl.seq++
		txns[i].ID = TxnID{Client: cl.id, Seq: cl.seq}
	}
	to, req := cl.reqs.Send(&Batch{Txns: txns, Involved: involved}, time.Now())
	defer cl.reqs.Drop(req.Digest)
	cl.ep.Send(to, req)

	deadline := time.NewTimer(c.cfg.SubmitTimeout)
	defer deadline.Stop()
	rebroadcast := time.NewTicker(clientRebroadcast / 2)
	defer rebroadcast.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("%w after %v", ErrTimeout, c.cfg.SubmitTimeout)
		case <-rebroadcast.C:
			// Attack A1: the client cannot wait on the primary forever.
			for _, r := range cl.reqs.Due(time.Now(), clientRebroadcast) {
				for _, to := range c.topo.Fallback(r.Batch) {
					cl.ep.Send(to, r.Msg)
				}
			}
		case m := <-cl.ep.Inbox():
			// A reused client may still hold late replies to its earlier
			// batches; they answer nothing.
			if r := cl.reqs.Deliver(m); r != nil {
				return r.Results, nil
			}
		}
	}
}

// takeClient returns an idle client, or attaches a new one when none is.
func (c *Cluster) takeClient() *client {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cl := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cl
	}
	c.clients++
	id := types.ClientID(c.clients)
	c.mu.Unlock()
	ep := c.net.Attach(types.ClientNode(id), simnet.Region(int(id)%int(simnet.NumRegions)))
	return &client{id: id, ep: ep, reqs: harness.NewClient(c.topo, id)}
}

// putClient makes cl idle again.
func (c *Cluster) putClient(cl *client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = append(c.idle, cl)
}

// Ledger returns a snapshot of the blockchain of one replica of shard s
// (replica index idx). Call while the cluster is quiescent or accept a
// point-in-time snapshot.
func (c *Cluster) Ledger(s ShardID, idx int) []*Block {
	r := c.replica(s, idx)
	if r == nil {
		return nil
	}
	return r.Chain().Blocks()
}

// VerifyLedgers walks every replica's blockchain, checking hash chains and
// Merkle roots, and confirms that all replicas of each shard agree on their
// chain prefix. It is the integrity check of Section 7.
func (c *Cluster) VerifyLedgers() error {
	for s := 0; s < c.cfg.Shards; s++ {
		var chains [][]*Block
		for i := 0; i < c.cfg.ReplicasPerShard; i++ {
			r := c.replica(ShardID(s), i)
			if err := r.Chain().Verify(); err != nil {
				return fmt.Errorf("shard %d replica %d: %w", s, i, err)
			}
			chains = append(chains, r.Chain().Blocks())
		}
		// Replicas of one shard may interleave non-conflicting cross-shard
		// blocks differently near the head (Section 7 permits this across
		// ledgers; execution acceptance times differ per replica), so the
		// agreement check is on content: every block of the shortest chain
		// appears in each longer chain.
		shortest := chains[0]
		for _, ch := range chains[1:] {
			if len(ch) < len(shortest) {
				shortest = ch
			}
		}
		for i, ch := range chains {
			have := make(map[Digest]struct{}, len(ch))
			for _, b := range ch {
				have[b.Digest] = struct{}{}
			}
			for _, b := range shortest {
				if _, ok := have[b.Digest]; !ok {
					return fmt.Errorf("shard %d: replica %d is missing block seq %d", s, i, b.Seq)
				}
			}
		}
	}
	return nil
}

// Read returns the committed value of key k as seen by replica idx of its
// owner shard.
func (c *Cluster) Read(k Key, idx int) Value {
	r := c.replica(c.OwnerShard(k), idx)
	if r == nil {
		return 0
	}
	return r.Store().Get(k)
}

// CrashReplica drops all traffic to and from one replica (e.g. a primary,
// to demonstrate view change). Revive with ReviveReplica.
func (c *Cluster) CrashReplica(s ShardID, idx int) {
	c.net.SetCrashed(types.ReplicaNode(s, idx), true)
}

// ReviveReplica restores a crashed replica's connectivity.
func (c *Cluster) ReviveReplica(s ShardID, idx int) {
	c.net.SetCrashed(types.ReplicaNode(s, idx), false)
}

// KillReplica terminates one replica's process: its event loop stops and
// its traffic drops. Unlike CrashReplica, the in-memory state is genuinely
// gone — RestartReplica brings it back from whatever the durability
// subsystem persisted (everything, when the cluster is Durable; nothing
// otherwise, in which case peer state transfer rebuilds it).
func (c *Cluster) KillReplica(s ShardID, idx int) { c.rt.Crash(types.ReplicaNode(s, idx)) }

// RestartReplica rebuilds a killed replica from disk and rejoins it to the
// cluster. The restarted replica replays its snapshot + WAL tail and, if
// it is behind the shard, catches up through checkpoint-certified state
// transfer. A replica that is still running is killed first.
func (c *Cluster) RestartReplica(s ShardID, idx int) error {
	if c.replica(s, idx) == nil {
		return errors.New("ringbft: no such replica")
	}
	c.KillReplica(s, idx)
	return c.rt.Restart(types.ReplicaNode(s, idx), false)
}

// WipeReplica erases a killed replica's data directory, so a subsequent
// RestartReplica exercises the wipe-and-rejoin state-transfer path.
func (c *Cluster) WipeReplica(s ShardID, idx int) error {
	return ringbft.WipeReplica(c.tcfg.DataDir, types.ReplicaNode(s, idx), c.fs)
}

func (c *Cluster) replica(s ShardID, idx int) *ringbft.Replica {
	r, _ := c.rt.Node(types.ReplicaNode(s, idx)).(*ringbft.Replica)
	return r
}
