package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/harness"
	"ringbft/internal/host"
	"ringbft/internal/metrics"
	"ringbft/internal/ringbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
	"ringbft/internal/workload"
)

// tickStep is the logical duration of one engine tick. Protocol timers (the
// types.DefaultConfig timeouts) are expressed in this time base: the default
// 250ms local timeout is 10 ticks.
const tickStep = 25 * time.Millisecond

// env is one in-flight message.
type env struct {
	seq      int // enqueue order; final sort tiebreak only
	at       int // delivery tick
	from, to types.NodeID
	m        *types.Message
}

// Cluster is the deterministic logical-time chaos engine: replicas of one
// protocol wired through a canonically ordered message queue, a virtual
// clock driving their timers, seeded clients, and nemesis state (partitions,
// loss, delay, crashes, Byzantine modes) applied at scheduled ticks. Every
// run of the same scenario executes identically: delivery order is sorted by
// message identity, and loss/jitter coins are content-addressed hashes of
// (seed, message identity, tick) rather than draws from a shared RNG stream.
type Cluster struct {
	sc   Scenario
	cfg  types.Config
	topo *harness.Topology
	fs   *wal.MemFS

	nodes map[types.NodeID]host.Handler
	order []types.NodeID // deterministic iteration order: topo.Nodes()
	// hooks are each node slot's build hooks, reused when spawn rebuilds
	// the slot after a crash (so a restarted replica keeps its tracer).
	hooks map[types.NodeID]harness.Hooks

	// staged holds sends that have not been assigned a delivery tick yet;
	// assignment happens in canonical order at pump boundaries (see
	// commitStaged) so that per-link FIFO clamping cannot depend on the
	// enqueue order, which Go map iteration makes unstable.
	staged  []env
	queue   []env
	nextSeq int
	tick    int
	// lastAt tracks the latest assigned delivery tick per (from,to) link:
	// delivery is per-link FIFO, like simnet's linkQueue and a real TCP
	// stream — jitter may stretch a link but never reorder it.
	lastAt map[[2]types.NodeID]int

	// Nemesis state.
	down      map[types.NodeID]bool
	byz       map[types.NodeID]harness.ByzMode
	partition func(from, to types.NodeID) bool
	lossP     float64
	delayX    int // extra ticks on cross-shard links
	// Client faults flip the adversarial client's (advClientID) behaviour:
	// duplicate storms fan identical requests everywhere, conflict storms
	// pair every fresh request with a same-TxnID variant (see stepClient).
	clientDup      bool
	clientConflict bool

	clients        []*dclient
	lastCommitTick int
	committed      int

	// Observability (Scenario.Instrument). Timestamps come from the virtual
	// clock, so the instrumented run is as deterministic as the bare one.
	reg *metrics.Registry
}

// advClientID names the client the client-fault classes corrupt; the
// accountability expectation (checkers.go) must point at the same one.
const advClientID types.ClientID = 1

// dclient is one deterministic closed-loop client on virtual time.
type dclient struct {
	id     types.ClientID
	reqs   *harness.Client
	gen    *workload.Generator
	window int
	inbox  []*types.Message
	// committed is the client's completion order — part of the
	// determinism fingerprint.
	committed []types.Digest
	paused    bool // probe phase: stop launching fresh batches
}

// NewCluster builds the deterministic cluster for a scenario.
func NewCluster(sc Scenario) (*Cluster, error) { return newCluster(sc, nil) }

// newCluster is NewCluster with an optional wrapper around every node's key
// ring (instrumentation: counting authenticators).
func newCluster(sc Scenario, wrapAuth func(types.NodeID, crypto.Authenticator) crypto.Authenticator) (*Cluster, error) {
	sc = sc.Normalize()
	cfg := types.DefaultConfig(sc.Shards, sc.ReplicasPerShard)
	cfg.BatchSize = sc.BatchSize
	if sc.PipelineDepth > 0 {
		cfg.PipelineDepth = sc.PipelineDepth
	}
	cfg.CheckpointInterval = 8 // short cadence so recovery paths engage in-window
	cfg.DataDir = "data"
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", sc.Name(), err)
	}

	topo, err := harness.NewTopology(sc.Protocol, sc.Shards, sc.ReplicasPerShard, sc.Seed, false, wrapAuth)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", sc.Name(), err)
	}
	c := &Cluster{
		sc:     sc,
		cfg:    cfg,
		topo:   topo,
		fs:     wal.NewMemFS(),
		nodes:  make(map[types.NodeID]host.Handler),
		order:  topo.Nodes(),
		hooks:  make(map[types.NodeID]harness.Hooks),
		lastAt: make(map[[2]types.NodeID]int),
		down:   make(map[types.NodeID]bool),
		byz:    make(map[types.NodeID]harness.ByzMode),
	}
	if sc.Instrument {
		c.reg = metrics.NewRegistry()
	}
	for _, id := range c.order {
		h := harness.Hooks{Send: c.sender(id), Clock: c.clock, FS: c.fs, Metrics: c.reg}
		if sc.Instrument {
			h.Tracer = trace.New(0)
		}
		c.hooks[id] = h
		if err := c.spawn(id); err != nil {
			return nil, err
		}
	}

	for i := 0; i < sc.Clients; i++ {
		cid := types.ClientID(i + 1)
		c.clients = append(c.clients, &dclient{
			id:   cid,
			reqs: harness.NewClient(topo, cid),
			gen: workload.New(workload.Config{
				Shards:        sc.Shards,
				ActiveRecords: sc.Records,
				CrossShardPct: sc.CrossShardPct,
				BatchSize:     sc.BatchSize,
				Clients:       sc.Clients,
				Seed:          sc.Seed + int64(cid)*7919,
			}),
			window: 1,
		})
	}
	return c, nil
}

// clock returns the virtual time of the current tick.
func (c *Cluster) clock() time.Time {
	return time.Unix(0, 0).Add(time.Duration(c.tick) * tickStep)
}

// spawn builds (or rebuilds, after a crash) node id, recovering whatever
// survives on the shared in-memory filesystem.
func (c *Cluster) spawn(id types.NodeID) error {
	n, err := c.topo.Build(c.cfg, id, c.sc.Records, c.hooks[id])
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	c.nodes[id] = n.(host.Handler) // every sharded node is one
	return nil
}

// sender returns node id's outbound hook: Byzantine interception, then
// enqueue with content-addressed delivery jitter.
func (c *Cluster) sender(id types.NodeID) func(to types.NodeID, m *types.Message) {
	a := c.topo.Auth(id)
	return func(to types.NodeID, m *types.Message) {
		if m = harness.Intercept(c.byz[id], id, a, to, m); m != nil {
			c.enqueue(id, to, m)
		}
	}
}

func (c *Cluster) enqueue(from, to types.NodeID, m *types.Message) {
	c.staged = append(c.staged, env{seq: c.nextSeq, from: from, to: to, m: m})
	c.nextSeq++
}

// commitStaged assigns delivery ticks to staged sends: canonical order
// first, then per-message content-addressed jitter clamped to per-link FIFO.
// Doing this in canonical order is what keeps the engine deterministic —
// sends generated while iterating Go maps arrive here in unstable order,
// and the FIFO clamp would otherwise make delivery times depend on it.
func (c *Cluster) commitStaged() {
	if len(c.staged) == 0 {
		return
	}
	batch := c.staged
	c.staged = nil
	sort.Slice(batch, func(i, j int) bool { return batch[i].less(batch[j]) })
	for _, e := range batch {
		delay := int(c.coin(e.from, e.to, e.m, 0x0ddba11) % 3) // 0..2 ticks of jitter
		if c.delayX > 0 && e.from.Kind == types.KindReplica && e.to.Kind == types.KindReplica &&
			e.from.Shard != e.to.Shard {
			delay += c.delayX
		}
		e.at = c.tick + delay
		link := [2]types.NodeID{e.from, e.to}
		if last, ok := c.lastAt[link]; ok && last > e.at {
			e.at = last // FIFO: never overtake an earlier message on this link
		}
		c.lastAt[link] = e.at
		c.queue = append(c.queue, e)
	}
}

// coin derives a deterministic 64-bit value from the message's identity and
// the current tick: fault decisions (loss, jitter) must not depend on
// enqueue order, which Go map iteration makes unstable.
func (c *Cluster) coin(from, to types.NodeID, m *types.Message, salt uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(c.sc.Seed) ^ salt
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mix(uint64(from.Kind)<<32 | uint64(uint16(from.Shard))<<16 | uint64(uint16(from.Index)))
	mix(uint64(to.Kind)<<32 | uint64(uint16(to.Shard))<<16 | uint64(uint16(to.Index)))
	mix(uint64(m.Type)<<48 | uint64(uint16(m.Shard))<<32 | uint64(uint32(c.tick)))
	mix(uint64(m.View))
	mix(uint64(m.Seq))
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(m.Digest[i])) * prime64
	}
	return h
}

// less orders two envelopes canonically by message identity; enqueue order
// is only the final tiebreak (it can differ between runs for messages
// generated while iterating Go maps, but only for identical identities,
// where order cannot affect the outcome).
func (a env) less(b env) bool {
	ka, kb := a.key(), b.key()
	if d := bytes.Compare(ka, kb); d != 0 {
		return d < 0
	}
	return a.seq < b.seq
}

func (a env) key() []byte {
	var buf [8 + 8 + 4 + 8 + 8 + 32]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (56 - 8*i))
		}
	}
	put(0, uint64(a.from.Kind)<<40|uint64(uint16(a.from.Shard))<<24|uint64(uint16(a.from.Index)))
	put(8, uint64(a.to.Kind)<<40|uint64(uint16(a.to.Shard))<<24|uint64(uint16(a.to.Index)))
	buf[16] = byte(a.m.Type)
	buf[17] = byte(uint8(a.m.Shard))
	put(20, uint64(a.m.View))
	put(28, uint64(a.m.Seq))
	copy(buf[36:], a.m.Digest[:])
	return buf[:]
}

// pump delivers every due message, sorted canonically, looping until the
// current tick generates nothing more that is immediately deliverable.
func (c *Cluster) pump() error {
	for guard := 0; ; guard++ {
		if guard > 2000 {
			return fmt.Errorf("chaos: message storm at tick %d (%d queued)", c.tick, len(c.queue))
		}
		c.commitStaged()
		var due, future []env
		for _, e := range c.queue {
			if e.at <= c.tick {
				due = append(due, e)
			} else {
				future = append(future, e)
			}
		}
		if len(due) == 0 {
			return nil
		}
		c.queue = future
		sort.Slice(due, func(i, j int) bool { return due[i].less(due[j]) })
		for _, e := range due {
			if c.dropAtDelivery(e) {
				continue
			}
			if e.to.Kind == types.KindClient {
				for _, cl := range c.clients {
					if types.ClientNode(cl.id) == e.to {
						cl.inbox = append(cl.inbox, e.m)
					}
				}
				continue
			}
			if n, ok := c.nodes[e.to]; ok && !c.down[e.to] {
				n.HandleMessage(e.m)
			}
		}
	}
}

// dropAtDelivery applies crash, partition, and loss state at delivery time.
func (c *Cluster) dropAtDelivery(e env) bool {
	if c.down[e.from] || c.down[e.to] {
		return true
	}
	if c.partition != nil && c.partition(e.from, e.to) {
		return true
	}
	if c.lossP > 0 && e.from.Kind != types.KindClient && e.to.Kind != types.KindClient {
		if float64(c.coin(e.from, e.to, e.m, 0x10551055)%(1<<32))/float64(1<<32) < c.lossP {
			return true
		}
	}
	return false
}

// partition is the link-down predicate of a partition event: which
// messages from->to it drops. Both the deterministic engine and the
// wall-clock adapter install it.
func partition(e Event) func(from, to types.NodeID) bool {
	inIsland := func(id types.NodeID, s types.ShardID) bool {
		return id.Kind == types.KindReplica && id.Shard == s
	}
	switch e.Op {
	case OpPartitionShard:
		s := e.Shard
		return func(from, to types.NodeID) bool {
			if from.Kind == types.KindClient || to.Kind == types.KindClient {
				return false
			}
			return inIsland(from, s) != inIsland(to, s)
		}
	case OpPartitionAsym:
		a, b := e.Shard, e.Shard2
		return func(from, to types.NodeID) bool {
			return inIsland(from, a) && inIsland(to, b)
		}
	default: // OpPartitionLane
		i1, i2 := e.Index, e.Index2
		return func(from, to types.NodeID) bool {
			if from.Kind != types.KindReplica || to.Kind != types.KindReplica ||
				from.Shard == to.Shard {
				return false
			}
			return from.Index == i1 || to.Index == i1 ||
				(i2 >= 0 && (from.Index == i2 || to.Index == i2))
		}
	}
}

// apply executes one nemesis event.
func (c *Cluster) apply(e Event) error {
	switch e.Op {
	case OpPartitionShard, OpPartitionAsym, OpPartitionLane:
		c.partition = partition(e)
	case OpLoss:
		c.lossP = e.P
	case OpDelay:
		c.delayX = e.Ticks
	case OpCrash:
		c.down[types.ReplicaNode(e.Shard, e.Index)] = true
	case OpRestart:
		id := types.ReplicaNode(e.Shard, e.Index)
		if e.Wipe {
			if err := ringbft.WipeReplica(c.cfg.DataDir, id, c.fs); err != nil {
				return err
			}
		}
		if err := c.spawn(id); err != nil { // rebuild from surviving durable state
			return err
		}
		delete(c.down, id)
	case OpByzSilent:
		c.byz[types.ReplicaNode(e.Shard, e.Index)] = harness.ByzSilent
	case OpByzEquivocate:
		c.byz[types.ReplicaNode(e.Shard, e.Index)] = harness.ByzEquivocate
	case OpByzNewView:
		c.byz[types.ReplicaNode(e.Shard, e.Index)] = harness.ByzNewView
	case OpByzGarbageCert:
		c.byz[types.ReplicaNode(e.Shard, e.Index)] = harness.ByzGarbageCert
	case OpClientDuplicate:
		c.clientDup = true
	case OpClientConflict:
		c.clientConflict = true
	case OpHeal:
		c.partition = nil
		c.lossP = 0
		c.delayX = 0
		clear(c.byz)
		c.clientDup = false
		c.clientConflict = false
	}
	return nil
}

// step advances one tick: nemesis events due now, timer ticks for every
// alive node (deterministic order), message deliveries, then client logic.
func (c *Cluster) step(events []Event) error {
	for _, e := range events {
		if e.At == c.tick {
			if err := c.apply(e); err != nil {
				return err
			}
		}
	}
	now := c.clock()
	for _, id := range c.order {
		if !c.down[id] {
			c.nodes[id].HandleTick(now)
		}
	}
	if err := c.pump(); err != nil {
		return err
	}
	for _, cl := range c.clients {
		c.stepClient(cl)
	}
	// Client sends may be deliverable this tick (zero jitter): drain them
	// so responses are not systematically one tick late.
	if err := c.pump(); err != nil {
		return err
	}
	c.tick++
	return nil
}

// stepClient answers the requests this tick's responses complete, in
// digest order, rebroadcasts those older than 2×LocalTimeout (the harness
// client's rule) and refills the window.
func (c *Cluster) stepClient(cl *dclient) {
	now := c.clock()
	var doneNow []types.Digest
	for _, m := range cl.inbox {
		if r := cl.reqs.Deliver(m); r != nil {
			doneNow = append(doneNow, r.Msg.Digest)
		}
	}
	cl.inbox = nil
	// Sort completions: arrival order must not leak into the committed
	// sequence (part of the determinism fingerprint).
	sort.Slice(doneNow, func(i, j int) bool {
		return bytes.Compare(doneNow[i][:], doneNow[j][:]) < 0
	})
	for _, d := range doneNow {
		cl.committed = append(cl.committed, d)
		c.committed++
		c.lastCommitTick = c.tick
	}
	from := types.ClientNode(cl.id)
	for _, r := range cl.reqs.Due(now, 2*c.cfg.LocalTimeout) {
		for _, to := range c.topo.Fallback(r.Batch) {
			c.enqueue(from, to, r.Msg)
		}
	}
	// Keep the window full.
	for !cl.paused && cl.reqs.Len() < cl.window {
		to, m := cl.reqs.Send(cl.gen.NextBatch(cl.id), now)
		if c.clientDup && cl.id == advClientID {
			// Duplicate storm: fan the identical request out to the whole
			// shard — exactly what honest retransmission does, so this is
			// legal traffic the protocol must dedupe without accusing anyone.
			for _, to := range c.topo.Fallback(m.Batch) {
				c.enqueue(from, to, m)
			}
			continue
		}
		c.enqueue(from, to, m)
		if c.clientConflict && cl.id == advClientID {
			// Conflict storm: a second batch carrying the same transaction
			// IDs under a different digest, blasted at the whole shard.
			// Replicas commit both digests as distinct batches (consensus
			// is keyed by digest, so safety holds) and record
			// client-conflict evidence naming this client. The client never
			// tracks the variant — its responses answer no request.
			evil := harness.EquivocateBatch(m.Batch)
			em := &types.Message{
				Type: types.MsgClientRequest, From: from,
				Batch: evil, Digest: evil.Digest(),
			}
			for _, to := range c.topo.Fallback(m.Batch) {
				c.enqueue(from, to, em)
			}
		}
	}
}

// Observability returns the merged lifecycle events (in canonical node
// order, so the result is as deterministic as the run) and the metrics
// snapshot of an instrumented cluster; nil and "" otherwise.
func (c *Cluster) Observability() ([]trace.Event, string) {
	if c.reg == nil {
		return nil, ""
	}
	batches := make([][]trace.Event, 0, len(c.order))
	for _, id := range c.order {
		batches = append(batches, c.hooks[id].Tracer.Events())
	}
	return trace.Merge(batches...), c.reg.Snapshot()
}

// Capture snapshots every replica's commit state (crashed nodes included —
// a dead replica's prefix still must not conflict).
func (c *Cluster) Capture() []harness.ReplicaState {
	var out []harness.ReplicaState
	for _, id := range c.order {
		if st, ok := harness.CaptureReplica(id, c.nodes[id]); ok {
			out = append(out, st)
		}
	}
	return out
}
