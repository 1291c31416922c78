package harness

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ringbft/internal/ahl"
	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/host"
	obs "ringbft/internal/metrics"
	"ringbft/internal/protocols"
	"ringbft/internal/ringbft"
	"ringbft/internal/sharper"
	"ringbft/internal/simnet"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// This file is the one place a sharded replica is built. Harness runs, the
// chaos engine, the public ringbft.Cluster and cmd/ringbft-node all lay
// their nodes out with NewTopology and construct each one with Build.

// Topology is one deployment's node layout and key material: the shard peer
// lists, AHL's reference committee, and one authenticator per node.
type Topology struct {
	protocol  Protocol
	shards    [][]types.NodeID // shards[s][i] is replica i of shard s
	committee []types.NodeID   // AHL's reference committee; nil otherwise
	auths     map[types.NodeID]crypto.Authenticator
}

// NewTopology lays out shards × n replicas, plus an n-member committee for
// AHL, and derives every node's keys from seed. With noCrypto every node
// gets crypto.NopAuth. wrap, when non-nil, decorates each node's
// authenticator (instrumentation, e.g. crypto.CountingAuth).
func NewTopology(p Protocol, shards, n int, seed int64, noCrypto bool, wrap func(types.NodeID, crypto.Authenticator) crypto.Authenticator) (*Topology, error) {
	if !p.Replicated() && p != ProtoRingBFT && p != ProtoAHL && p != ProtoSharper {
		return nil, fmt.Errorf("harness: unknown protocol %q", p)
	}
	t := &Topology{protocol: p, shards: make([][]types.NodeID, shards), auths: make(map[types.NodeID]crypto.Authenticator)}
	for s := range t.shards {
		t.shards[s] = make([]types.NodeID, n)
		for i := range t.shards[s] {
			t.shards[s][i] = types.ReplicaNode(types.ShardID(s), i)
		}
	}
	if p == ProtoAHL {
		for i := 0; i < n; i++ {
			t.committee = append(t.committee, types.CommitteeNode(i))
		}
	}
	kg := crypto.NewKeygen(seed)
	nodes := t.Nodes()
	if !noCrypto {
		for _, id := range nodes {
			kg.Register(id)
		}
	}
	for _, id := range nodes {
		var a crypto.Authenticator = crypto.NopAuth{}
		if !noCrypto {
			ring, err := kg.Ring(id)
			if err != nil {
				return nil, err
			}
			a = ring
		}
		if wrap != nil {
			a = wrap(id, a)
		}
		t.auths[id] = a
	}
	return t, nil
}

// Nodes lists every node: the shard replicas in index order, then the
// committee. Nodes are built, ticked and captured in this order.
func (t *Topology) Nodes() []types.NodeID {
	var out []types.NodeID
	for _, peers := range t.shards {
		out = append(out, peers...)
	}
	return append(out, t.committee...)
}

// Auth returns node id's authenticator.
func (t *Topology) Auth(id types.NodeID) crypto.Authenticator { return t.auths[id] }

// Entry is the node a client addresses a fresh batch to: the first
// committee member for an AHL cross-shard batch, otherwise the primary of
// the initiator shard in view v.
func (t *Topology) Entry(b *types.Batch, v types.View) types.NodeID {
	if t.committee != nil && b.IsCrossShard() {
		return t.committee[0]
	}
	s := b.Initiator()
	return types.ReplicaNode(s, int(uint64(v)%uint64(len(t.shards[s]))))
}

// Fallback lists the nodes a client rebroadcasts a timed-out batch to
// (attack A1): the committee for an AHL cross-shard batch, otherwise every
// replica of the initiator shard.
func (t *Topology) Fallback(b *types.Batch) []types.NodeID {
	if t.committee != nil && b.IsCrossShard() {
		return t.committee
	}
	return t.shards[b.Initiator()]
}

// Hooks are what a caller threads into one node. Every field is optional
// except Send.
type Hooks struct {
	Send  host.Sender
	Clock func() time.Time // nil = time.Now
	// FS holds the shard replicas' durability under Config.DataDir; nil
	// keeps them in memory. The committee is never durable.
	FS      wal.FS
	Metrics *obs.Registry
	// Tracer is the node slot's lifecycle tracer; pass the same one when
	// the slot is rebuilt after a crash, so it keeps one span log.
	Tracer *trace.Tracer
	// Backpressure and AllToAllForward reach RingBFT replicas only (see
	// ringbft.Options).
	Backpressure    func() int
	AllToAllForward bool
	Evidence        *evidence.Log
}

// Node is a built node: the event loop a Runtime runs.
type Node interface {
	Run(ctx context.Context, inbox <-chan *types.Message)
}

// replica is a node holding a store partition to preload.
type replica interface {
	Node
	Preload(records int)
}

// Build constructs node id of the topology: a RingBFT replica, an AHL
// replica or committee member, or a Sharper replica, with records preloaded
// and, when h.FS is set, whatever its data directory holds recovered. Every
// node it returns is also a host.Handler, which the deterministic chaos
// engine drives directly.
func (t *Topology) Build(cfg types.Config, id types.NodeID, records int, h Hooks) (Node, error) {
	a, ok := t.auths[id]
	if !ok || t.protocol.Replicated() {
		return nil, fmt.Errorf("harness: no %s node %v", t.protocol, id)
	}
	if id.Kind == types.KindCommittee {
		return ahl.NewCommittee(ahl.CommitteeOptions{
			Config: cfg, Self: id, Peers: t.committee, ShardPeers: t.shards,
			Auth: a, Send: h.Send, Clock: h.Clock,
			Metrics: h.Metrics, Tracer: h.Tracer,
		}), nil
	}
	var dur *wal.Manager
	var rec *wal.Recovered
	if h.FS != nil {
		var err error
		if dur, rec, err = ringbft.OpenDurability(cfg, id, h.FS); err != nil {
			return nil, fmt.Errorf("harness: open durability for %v: %w", id, err)
		}
	}
	peers := t.shards[id.Shard]
	var r replica
	switch t.protocol {
	case ProtoAHL:
		r = ahl.NewReplica(ahl.ReplicaOptions{
			Config: cfg, Shard: id.Shard, Self: id, Peers: peers, Committee: t.committee,
			Auth: a, Send: h.Send, Clock: h.Clock,
			Durability: dur, Recovered: rec, Evidence: h.Evidence,
			Metrics: h.Metrics, Tracer: h.Tracer,
		})
	case ProtoSharper:
		r = sharper.New(sharper.Options{
			Config: cfg, Shard: id.Shard, Self: id, Peers: peers,
			Auth: a, Send: h.Send, Clock: h.Clock,
			Durability: dur, Recovered: rec, Evidence: h.Evidence,
			Metrics: h.Metrics, Tracer: h.Tracer,
		})
	default:
		r = ringbft.New(ringbft.Options{
			Config: cfg, Shard: id.Shard, Self: id, Peers: peers,
			Auth: a, Send: h.Send, Clock: h.Clock,
			AllToAllForward: h.AllToAllForward, Backpressure: h.Backpressure,
			Durability: dur, Recovered: rec, Evidence: h.Evidence,
			Metrics: h.Metrics, Tracer: h.Tracer,
		})
	}
	r.Preload(records)
	return r, nil
}

// build constructs the cluster for the configured protocol.
func build(cfg Config) (*cluster, error) {
	if cfg.Protocol.Replicated() {
		return buildReplicated(cfg)
	}
	tcfg := typesConfig(cfg)
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := NewTopology(cfg.Protocol, cfg.Shards, cfg.ReplicasPerShard, cfg.Seed, cfg.NoCrypto, nil)
	if err != nil {
		return nil, err
	}
	cl := newCluster(cfg, topo)
	var fs wal.FS
	if cfg.Durable {
		fs = wal.NewMemFS()
	}
	cl.rt, err = Deploy(buildFabric(cfg), topo, tcfg, fs, cfg.Records, func(id types.NodeID, h *Hooks) {
		if cfg.Nemesis != nil {
			// Route outbound traffic through the Byzantine interceptor, so
			// SetByzantine works mid-run; other runs send directly.
			mode, a, send := new(atomic.Int32), topo.Auth(id), h.Send
			cl.byz[id] = mode
			h.Send = func(to types.NodeID, m *types.Message) {
				if m = Intercept(ByzMode(mode.Load()), id, a, to, m); m != nil {
					send(to, m)
				}
			}
		}
		h.AllToAllForward = cfg.AllToAllForward
		h.Metrics = cl.reg
		if cfg.Instrument {
			h.Tracer = trace.New(0)
			cl.tracers = append(cl.tracers, h.Tracer)
		}
	})
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// baselines constructs the fully-replicated protocols of Figure 1.
var baselines = map[Protocol]func(protocols.Options) replica{
	ProtoPBFT:     func(o protocols.Options) replica { return protocols.NewPBFT(o) },
	ProtoZyzzyva:  func(o protocols.Options) replica { return protocols.NewZyzzyva(o) },
	ProtoSBFT:     func(o protocols.Options) replica { return protocols.NewSBFT(o) },
	ProtoPoE:      func(o protocols.Options) replica { return protocols.NewPoE(o) },
	ProtoHotStuff: func(o protocols.Options) replica { return protocols.NewHotStuff(o) },
	ProtoRCC:      func(o protocols.Options) replica { return protocols.NewRCC(o) },
}

// buildReplicated constructs a single fully-replicated consensus group of
// ReplicasPerShard nodes running one of the Figure 1 baselines, replicas
// spread across the fifteen regions like the paper's geo-distributed
// deployment.
func buildReplicated(cfg Config) (*cluster, error) {
	cfg.Shards = 1
	cfg.CrossShardPct = 0
	tcfg := typesConfig(cfg)
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := NewTopology(cfg.Protocol, 1, cfg.ReplicasPerShard, cfg.Seed, cfg.NoCrypto, nil)
	if err != nil {
		return nil, err
	}
	peers := topo.shards[0]
	n := len(peers)
	cl := newCluster(cfg, topo)
	net := buildFabric(cfg)
	cl.rt = &Runtime{net: net}
	for i, id := range peers {
		ep := net.Attach(id, simnet.Region(i%int(simnet.NumRegions)))
		nd := baselines[cfg.Protocol](protocols.Options{Config: tcfg, Self: id, Peers: peers, Auth: topo.Auth(id), Send: ep.Send})
		nd.Preload(cfg.Records)
		// No durability: a restarted baseline resumes its old instance.
		cl.rt.slots = append(cl.rt.slots, &slot{id: id, inbox: ep.Inbox(), node: nd, rebuild: func() (Node, error) { return nd, nil }})
	}
	switch cfg.Protocol {
	case ProtoRCC:
		cl.multiPrimary = true
	case ProtoZyzzyva:
		cl.respNeed = n // all 3f+1 speculative responses must match
	case ProtoPoE:
		cl.respNeed = n - (n-1)/3 // nf matching speculative responses
	}
	return cl, nil
}
