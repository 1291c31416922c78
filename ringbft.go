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
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringbft/internal/crypto"
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
	cfg      ClusterConfig
	tcfg     types.Config
	net      *simnet.Network
	replicas []*ringbft.Replica
	inboxes  []<-chan *types.Message
	ids      []types.NodeID
	rebuild  []func() (*ringbft.Replica, error)
	fs       wal.FS

	ctx        context.Context
	cancel     context.CancelFunc
	nodeCancel []context.CancelFunc
	nodeDone   []chan struct{}
	managers   []*wal.Manager
	mu         sync.Mutex
	wg         sync.WaitGroup
	started    atomic.Bool
	stopped    atomic.Bool

	clientSeq atomic.Int64
}

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
	if cfg.Durable {
		tcfg.DataDir = cfg.DataDir
		if tcfg.DataDir == "" {
			tcfg.DataDir = "data"
		}
	}
	// Embedded clusters serve interactive Submits: rebroadcast quickly when
	// the contacted replica is silent (e.g. a crashed primary) so recovery
	// latency is dominated by the view change, not the client timer.
	tcfg.ClientTimeout = 500 * time.Millisecond
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}

	var lat simnet.LatencyModel = simnet.FixedLatency{D: 200 * time.Microsecond}
	if cfg.LatencyScale > 0 {
		lat = simnet.WANLatency{Scale: cfg.LatencyScale}
	}
	net := simnet.New(simnet.Options{Latency: lat, Seed: cfg.Seed})

	kg := crypto.NewKeygen(cfg.Seed)
	shardPeers := make([][]types.NodeID, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		peers := make([]types.NodeID, cfg.ReplicasPerShard)
		for i := range peers {
			peers[i] = types.ReplicaNode(types.ShardID(s), i)
			if !cfg.NoCrypto {
				kg.Register(peers[i])
			}
		}
		shardPeers[s] = peers
	}

	c := &Cluster{cfg: cfg, tcfg: tcfg, net: net}
	if cfg.Durable {
		if cfg.DataDir == "" {
			c.fs = wal.NewMemFS()
		} else {
			c.fs = wal.OSFS{}
		}
	}
	for s := 0; s < cfg.Shards; s++ {
		for i := 0; i < cfg.ReplicasPerShard; i++ {
			id := shardPeers[s][i]
			ep := net.Attach(id, simnet.ShardRegion(s))
			var a crypto.Authenticator = crypto.NopAuth{}
			if !cfg.NoCrypto {
				ring, err := kg.Ring(id)
				if err != nil {
					return nil, err
				}
				a = ring
			}
			peers := shardPeers[s]
			slot := len(c.replicas) // this replica's index, fixed at build
			mk := func() (*ringbft.Replica, error) {
				opts := ringbft.Options{
					Config: tcfg, Shard: id.Shard, Self: id,
					Peers: peers, Auth: a, Send: ep.Send,
				}
				if c.fs != nil {
					m, rec, err := ringbft.OpenDurability(tcfg, id, c.fs)
					if err != nil {
						return nil, err
					}
					opts.Durability = m
					opts.Recovered = rec
					c.managers[slot] = m
				}
				r := ringbft.New(opts)
				r.Preload(cfg.Records)
				return r, nil
			}
			c.managers = append(c.managers, nil)
			r, err := mk()
			if err != nil {
				return nil, err
			}
			c.replicas = append(c.replicas, r)
			c.rebuild = append(c.rebuild, mk)
			c.inboxes = append(c.inboxes, ep.Inbox())
			c.ids = append(c.ids, id)
		}
	}
	c.nodeCancel = make([]context.CancelFunc, len(c.replicas))
	c.nodeDone = make([]chan struct{}, len(c.replicas))
	return c, nil
}

// Start launches every replica's event loop.
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for i := range c.replicas {
		c.startReplica(i)
	}
}

func (c *Cluster) startReplica(i int) {
	nctx, ncancel := context.WithCancel(c.ctx)
	done := make(chan struct{})
	c.mu.Lock()
	c.nodeCancel[i] = ncancel
	c.nodeDone[i] = done
	r := c.replicas[i]
	c.mu.Unlock()
	c.wg.Add(1)
	go func(in <-chan *types.Message) {
		defer c.wg.Done()
		defer close(done)
		r.Run(nctx, in)
	}(c.inboxes[i])
}

// Stop terminates the cluster. Idempotent.
func (c *Cluster) Stop() {
	if !c.started.Load() || !c.stopped.CompareAndSwap(false, true) {
		return
	}
	c.cancel()
	c.wg.Wait()
	c.net.Close()
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
// transactions' read/write sets. Safe for concurrent use — each call acts as
// an independent client.
func (c *Cluster) Submit(ctx context.Context, txns ...Txn) ([]Value, error) {
	if !c.started.Load() {
		return nil, errors.New("ringbft: cluster not started")
	}
	if len(txns) == 0 {
		return nil, errors.New("ringbft: empty batch")
	}
	clientID := types.ClientID(c.clientSeq.Add(1))
	self := types.ClientNode(clientID)
	ep := c.net.Attach(self, simnet.Region(int(clientID)%int(simnet.NumRegions)))

	involvedSet := make(map[ShardID]struct{})
	for i := range txns {
		txns[i].ID = TxnID{Client: clientID, Seq: uint64(i + 1)}
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

	b := &Batch{Txns: txns, Involved: involved}
	d := b.Digest()
	req := &types.Message{Type: types.MsgClientRequest, From: self, Batch: b, Digest: d}
	ep.Send(types.ReplicaNode(b.Initiator(), 0), req)

	deadline := time.NewTimer(c.cfg.SubmitTimeout)
	defer deadline.Stop()
	rebroadcast := time.NewTicker(c.tcfg.ClientTimeout)
	defer rebroadcast.Stop()

	need := c.tcfg.F() + 1
	votes := make(map[types.NodeID]struct{})
	var result []Value
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("%w after %v", ErrTimeout, c.cfg.SubmitTimeout)
		case <-rebroadcast.C:
			// Attack A1: the client cannot wait on the primary forever.
			for i := 0; i < c.cfg.ReplicasPerShard; i++ {
				ep.Send(types.ReplicaNode(b.Initiator(), i), req)
			}
		case m := <-ep.Inbox():
			if m.Type != types.MsgResponse || m.Digest != d {
				continue
			}
			votes[m.From] = struct{}{}
			result = m.Results
			if len(votes) >= need {
				return result, nil
			}
		}
	}
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
func (c *Cluster) KillReplica(s ShardID, idx int) {
	i := c.index(s, idx)
	if i < 0 {
		return
	}
	c.net.SetCrashed(types.ReplicaNode(s, idx), true)
	c.mu.Lock()
	cancel, done := c.nodeCancel[i], c.nodeDone[i]
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	// Wait for the event loop to exit: the dead replica must not race a
	// restarted successor on the shared inbox or data directory.
	if done != nil {
		<-done
	}
}

// RestartReplica rebuilds a killed replica from disk and rejoins it to the
// cluster. The restarted replica replays its snapshot + WAL tail and, if
// it is behind the shard, catches up through checkpoint-certified state
// transfer.
func (c *Cluster) RestartReplica(s ShardID, idx int) error {
	i := c.index(s, idx)
	if i < 0 {
		return errors.New("ringbft: no such replica")
	}
	// Idempotent kill: stop (and wait out) the previous incarnation, then
	// release its durability handles before reopening the directory.
	c.KillReplica(s, idx)
	c.mu.Lock()
	old := c.managers[i]
	c.mu.Unlock()
	if old != nil {
		old.Close() // best-effort: an OS restart would have synced on exit
	}
	r, err := c.rebuild[i]()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.replicas[i] = r
	c.mu.Unlock()
	c.net.SetCrashed(types.ReplicaNode(s, idx), false)
	if c.started.Load() && !c.stopped.Load() {
		c.startReplica(i)
	}
	return nil
}

// WipeReplica erases a killed replica's data directory, so a subsequent
// RestartReplica exercises the wipe-and-rejoin state-transfer path.
func (c *Cluster) WipeReplica(s ShardID, idx int) {
	dir := wal.Join(c.tcfg.DataDir, fmt.Sprintf("s%d-r%d", s, idx))
	switch fs := c.fs.(type) {
	case *wal.MemFS:
		fs.RemoveAll(dir)
	case wal.OSFS:
		os.RemoveAll(dir)
	}
}

func (c *Cluster) index(s ShardID, idx int) int {
	i := int(s)*c.cfg.ReplicasPerShard + idx
	if i < 0 || i >= len(c.replicas) || idx < 0 || idx >= c.cfg.ReplicasPerShard {
		return -1
	}
	return i
}

func (c *Cluster) replica(s ShardID, idx int) *ringbft.Replica {
	i := c.index(s, idx)
	if i < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[i]
}
