// Package simnet is the in-process network substrate: it plays the role of
// the geo-distributed GCP deployment of the paper's evaluation (Section 8).
// Endpoints (replicas, committee members, clients) exchange messages with
// per-link delays drawn from a 15-region WAN latency matrix, per-link loss
// and extra delay, partitions, crashed nodes, and an optional bandwidth and
// per-message processing model. The simulator also
// accounts messages and bytes per link class so the communication-complexity
// claims (linear vs. quadratic) are directly measurable.
package simnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ringbft/internal/types"
)

// Stats aggregates network counters. All fields are updated atomically.
type Stats struct {
	MsgsSent      atomic.Int64
	MsgsDelivered atomic.Int64
	MsgsDropped   atomic.Int64
	BytesSent     atomic.Int64
	BytesCross    atomic.Int64 // bytes on inter-region (cross-shard) links
	BytesLocal    atomic.Int64 // bytes on intra-region links
}

// Network is an in-process message network. Safe for concurrent use.
type Network struct {
	latency LatencyModel
	inboxSz int
	nodeBps float64       // per-node egress/ingress bandwidth (0 = infinite)
	proc    time.Duration // per-message receive processing cost (0 = none)

	mu        sync.RWMutex
	endpoints map[types.NodeID]*Endpoint
	region    map[types.NodeID]Region
	crashed   map[types.NodeID]bool
	// linkDown, when non-nil, blocks delivery for (from,to) pairs it
	// reports true for; used for partition / no-communication attacks.
	linkDown func(from, to types.NodeID) bool
	// linkLoss, when non-nil, returns a per-link drop probability; lets a
	// nemesis schedule storm a subset of links while the rest of the
	// network stays healthy.
	linkLoss func(from, to types.NodeID) float64
	// linkDelay, when non-nil, returns extra one-way delay added on top of
	// the latency model for (from,to) — message-delay skews and slow-link
	// storms, installable and removable mid-run.
	linkDelay func(from, to types.NodeID) time.Duration

	// Loss sampling draws from a pool of independent RNGs instead of
	// one mutex-guarded generator: every concurrent sender gets its own
	// stream (seeded deterministically off the base seed), so hot-path sends
	// never serialize on a global RNG lock.
	rngSeed  int64
	rngCount atomic.Int64
	rngPool  sync.Pool

	// Per-link FIFO delivery queues: each (from,to) link delivers messages
	// strictly in send order, like a TCP connection, with at most one
	// runtime timer in flight per link (Go timers with near-equal deadlines
	// may otherwise fire out of order). egressFree/ingressFree are each
	// node's NIC queue horizons when bandwidth/processing modelling is on.
	linkMu      sync.Mutex
	links       map[[2]types.NodeID]*linkQueue
	egressFree  map[types.NodeID]time.Time
	ingressFree map[types.NodeID]time.Time

	closed atomic.Bool
	Stats  Stats
}

// Options configures a Network.
type Options struct {
	Latency   LatencyModel // default: FixedLatency{500µs}
	InboxSize int          // per-endpoint buffer, default 8192
	Seed      int64        // RNG seed for loss, default 1

	// NodeBps models each node's NIC: messages serialize through a FIFO
	// egress queue at the sender and a FIFO ingress queue at the receiver
	// at NodeBps bytes/second. 0 = infinite bandwidth.
	NodeBps float64
	// ProcTime is the per-message CPU cost paid in the receiver's ingress
	// queue; it caps a node's sustainable message rate at 1/ProcTime the
	// way ResilientDB's worker pipeline caps a 16-core VM. Protocols with
	// quadratic communication saturate this budget first — the effect the
	// paper's evaluation attributes AHL's and Sharper's WAN collapse to.
	ProcTime time.Duration
}

// New creates a Network.
func New(opts Options) *Network {
	if opts.Latency == nil {
		opts.Latency = FixedLatency{500 * time.Microsecond}
	}
	if opts.InboxSize <= 0 {
		opts.InboxSize = 8192
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Network{
		latency:     opts.Latency,
		inboxSz:     opts.InboxSize,
		nodeBps:     opts.NodeBps,
		proc:        opts.ProcTime,
		endpoints:   make(map[types.NodeID]*Endpoint),
		region:      make(map[types.NodeID]Region),
		crashed:     make(map[types.NodeID]bool),
		rngSeed:     seed,
		links:       make(map[[2]types.NodeID]*linkQueue),
		egressFree:  make(map[types.NodeID]time.Time),
		ingressFree: make(map[types.NodeID]time.Time),
	}
	n.rngPool.New = func() any {
		// Each pooled generator gets its own deterministic stream; the odd
		// multiplier decorrelates consecutive streams of nearby seeds.
		const stride = 0x9E3779B97F4A7C15 // 2^64/φ, reinterpreted as int64
		return rand.New(rand.NewSource(n.rngSeed + int64(uint64(stride)*uint64(n.rngCount.Add(1)))))
	}
	return n
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id  types.NodeID
	net *Network
	in  chan *types.Message
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() types.NodeID { return e.id }

// Inbox returns the endpoint's receive channel.
func (e *Endpoint) Inbox() <-chan *types.Message { return e.in }

// Send transmits m to node to, applying link latency, loss, partitions and
// crash state. Send never blocks the caller.
func (e *Endpoint) Send(to types.NodeID, m *types.Message) { e.net.send(e.id, to, m) }

// Multicast sends an independent copy of m to every node in tos. The message
// value itself is shared (treated as immutable after send), matching how a
// broadcast is physically n point-to-point sends.
func (e *Endpoint) Multicast(tos []types.NodeID, m *types.Message) {
	for _, to := range tos {
		e.net.send(e.id, to, m)
	}
}

// Attach registers a node in a region and returns its endpoint. Attaching an
// already-attached node returns the existing endpoint.
func (n *Network) Attach(id types.NodeID, r Region) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{id: id, net: n, in: make(chan *types.Message, n.inboxSz)}
	n.endpoints[id] = ep
	n.region[id] = r
	return ep
}

// RegionOf returns the region a node was attached in.
func (n *Network) RegionOf(id types.NodeID) Region {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.region[id]
}

// SetCrashed marks a node crashed (all its traffic is dropped) or revives it.
// Used by the primary-failure experiment (Fig 9).
func (n *Network) SetCrashed(id types.NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = down
}

// SetLinkFilter installs f as the partition predicate: messages from->to are
// dropped while f(from,to) is true. Pass nil to clear. Models the
// no-communication (C1) and partial-communication (C2) cross-shard attacks.
func (n *Network) SetLinkFilter(f func(from, to types.NodeID) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkDown = f
}

// SetLossFilter installs f as a per-link loss model: a message from->to is
// dropped with probability f(from,to), modelling an unreliable network
// (attack A2). Pass nil to clear. Nemesis schedules use it for targeted loss storms on chosen
// link classes.
func (n *Network) SetLossFilter(f func(from, to types.NodeID) float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLoss = f
}

// SetDelayFilter installs f as a per-link extra-delay model: every message
// from->to is delayed by an additional f(from,to) on top of the latency
// model. Pass nil to clear. Nemesis schedules use it for message-delay
// skews (slow links that stay connected).
func (n *Network) SetDelayFilter(f func(from, to types.NodeID) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkDelay = f
}

// Close stops future deliveries. In-flight timers become no-ops.
func (n *Network) Close() { n.closed.Store(true) }

func (n *Network) send(from, to types.NodeID, m *types.Message) {
	if n.closed.Load() {
		return
	}
	n.mu.RLock()
	dst, ok := n.endpoints[to]
	srcRegion, dstRegion := n.region[from], n.region[to]
	crashed := n.crashed[from] || n.crashed[to]
	down := n.linkDown != nil && n.linkDown(from, to)
	var loss float64
	if n.linkLoss != nil {
		loss = n.linkLoss(from, to)
	}
	var extraDelay time.Duration
	if n.linkDelay != nil {
		extraDelay = n.linkDelay(from, to)
	}
	n.mu.RUnlock()

	size := int64(m.WireSize())
	n.Stats.MsgsSent.Add(1)
	n.Stats.BytesSent.Add(size)
	if srcRegion != dstRegion {
		n.Stats.BytesCross.Add(size)
	} else {
		n.Stats.BytesLocal.Add(size)
	}

	if !ok || crashed || down {
		n.Stats.MsgsDropped.Add(1)
		return
	}
	d := n.latency.Delay(srcRegion, dstRegion) + extraDelay
	if loss > 0 {
		rng := n.rngPool.Get().(*rand.Rand)
		drop := rng.Float64() < loss
		n.rngPool.Put(rng)
		if drop {
			n.Stats.MsgsDropped.Add(1)
			return
		}
	}

	// Capacity model: with bandwidth/processing enabled, the message
	// serializes through the sender's egress queue, propagates for d, then
	// serializes through the receiver's ingress queue (NIC + per-message
	// CPU).
	//ringbft:ignore wallclock simnet delivers in real time by design; the seed governs loss sampling only, which draws from the per-network seeded rngPool above
	now := time.Now()
	var tx time.Duration
	if n.nodeBps > 0 {
		tx = time.Duration(float64(size) / n.nodeBps * float64(time.Second))
	}
	var deliverAt time.Time
	n.linkMu.Lock()
	if n.nodeBps > 0 || n.proc > 0 {
		dep := now
		if ef := n.egressFree[from]; ef.After(dep) {
			dep = ef
		}
		dep = dep.Add(tx)
		n.egressFree[from] = dep
		arr := dep.Add(d)
		recv := arr
		if inf := n.ingressFree[to]; inf.After(recv) {
			recv = inf
		}
		recv = recv.Add(tx + n.proc)
		n.ingressFree[to] = recv
		deliverAt = recv
	} else {
		deliverAt = now.Add(d)
	}
	key := [2]types.NodeID{from, to}
	lq, ok := n.links[key]
	if !ok {
		lq = &linkQueue{}
		n.links[key] = lq
	}
	lq.pending = append(lq.pending, flight{m: m, at: deliverAt, dst: dst})
	if !lq.armed {
		lq.armed = true
		n.armLink(lq, now)
	}
	n.linkMu.Unlock()
}

// flight is one in-flight message on a link.
type flight struct {
	m   *types.Message
	at  time.Time
	dst *Endpoint
}

// linkQueue serializes deliveries on one (from,to) link: exactly one timer
// is armed at a time and messages pop in send order, so a link can never
// reorder (TCP-like semantics).
type linkQueue struct {
	pending []flight
	armed   bool
}

// armLink schedules delivery of the head of lq. Caller holds linkMu.
func (n *Network) armLink(lq *linkQueue, now time.Time) {
	head := lq.pending[0]
	wait := head.at.Sub(now)
	if wait < 0 {
		wait = 0
	}
	//ringbft:ignore wallclock real-time delivery timer; link ordering (TCP-like FIFO) is enforced under linkMu, not by timer granularity
	time.AfterFunc(wait, func() { n.fireLink(lq) })
}

// fireLink delivers the head of lq and re-arms for the next message. The
// delivery happens under linkMu — the inbox send is non-blocking, and
// holding the lock guarantees the next timer cannot overtake this delivery.
func (n *Network) fireLink(lq *linkQueue) {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	head := lq.pending[0]
	lq.pending = lq.pending[1:]
	if len(lq.pending) > 0 {
		//ringbft:ignore wallclock real-time re-arm of the link timer; see armLink
		n.armLink(lq, time.Now())
	} else {
		lq.armed = false
		lq.pending = nil
	}

	if n.closed.Load() {
		return
	}
	select {
	case head.dst.in <- head.m:
		n.Stats.MsgsDelivered.Add(1)
	default:
		// Inbox overflow models a saturated replica dropping packets;
		// BFT protocols must recover via retransmission/timeouts.
		n.Stats.MsgsDropped.Add(1)
	}
}
