package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ringbft/internal/simnet"
	"ringbft/internal/tcpnet"
	"ringbft/internal/types"
)

// tcpFabric wires every node through a real tcpnet.Transport on a loopback
// socket, so the scenario suite (commit, primary failure, crash-restart)
// exercises actual dials, TCP framing, write deadlines, and the transport's
// redial/backoff machinery instead of simnet's in-process queues. Addresses
// are resolved through a shared table filled as nodes attach, so attach
// order doesn't matter (transports look peers up at first send).
type tcpFabric struct {
	opt tcpnet.Options

	mu          sync.Mutex
	addrs       map[types.NodeID]string
	crashed     map[types.NodeID]*atomic.Bool
	transports  []*tcpnet.Transport
	unreachable map[types.NodeID]bool
	rejectLns   []net.Listener

	// pumpDrops counts messages lost between a transport inbox and a full
	// endpoint inbox (e.g. a crashed node's stopped event loop) — real loss
	// the transports' own counters can't see.
	pumpDrops atomic.Int64

	closing chan struct{}
	closed  sync.Once
	wg      sync.WaitGroup
}

func newTCPFabric(cfg Config) *tcpFabric {
	f := &tcpFabric{
		// Scaled for in-process scenarios: redials must cycle well inside
		// the protocol timers so an unreachable peer is probed throughout
		// the run rather than once.
		opt: tcpnet.Options{
			OutboxDepth:  8192,
			DialTimeout:  time.Second,
			WriteTimeout: 2 * time.Second,
			RedialMin:    20 * time.Millisecond,
			RedialMax:    250 * time.Millisecond,
		},
		addrs:       make(map[types.NodeID]string),
		crashed:     make(map[types.NodeID]*atomic.Bool),
		unreachable: make(map[types.NodeID]bool),
		closing:     make(chan struct{}),
	}
	if cfg.TCPUnreachable {
		// The headline-bug scenario: the last backup of shard 0 advertises
		// a reject address — no message ever reaches it, and every peer's
		// writer churns through connect/teardown/backoff all run — while
		// Send stays an enqueue-or-drop and the shard keeps committing
		// with its remaining n-1 >= nf replicas.
		f.unreachable[types.ReplicaNode(0, cfg.ReplicasPerShard-1)] = true
	}
	return f
}

func (f *tcpFabric) lookup(id types.NodeID) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr, ok := f.addrs[id]
	return addr, ok
}

// rejectAddr binds a loopback listener that tears every connection down
// the instant it is accepted, and holds the binding for the fabric's
// lifetime. Holding it matters: a closed port could be handed back out to
// a later Attach's 127.0.0.1:0 listen, silently turning "unreachable" into
// "misrouted". Peers dialing this address connect, lose the connection
// immediately, and cycle the writer's teardown/redial/backoff machinery
// for the whole run — and no frame is ever delivered.
func (f *tcpFabric) rejectAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("harness: tcp fabric: %v", err))
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	f.mu.Lock()
	f.rejectLns = append(f.rejectLns, ln)
	f.mu.Unlock()
	return ln.Addr().String()
}

func (f *tcpFabric) Attach(id types.NodeID, _ simnet.Region) Endpoint {
	opt := f.opt
	opt.Resolver = f.lookup
	tr, err := tcpnet.New(id, "127.0.0.1:0", nil, opt)
	if err != nil {
		// Loopback listen fails only on resource exhaustion; the harness'
		// Attach shape (mirroring simnet) has no error path.
		panic(fmt.Sprintf("harness: tcp fabric: %v", err))
	}
	addr := tr.Addr()
	if f.unreachable[id] {
		addr = f.rejectAddr()
	}
	down := &atomic.Bool{}
	f.mu.Lock()
	f.addrs[id] = addr
	f.crashed[id] = down
	f.transports = append(f.transports, tr)
	f.mu.Unlock()

	ep := &tcpEndpoint{tr: tr, down: down, out: make(chan *types.Message, 1<<14), drops: &f.pumpDrops}
	f.wg.Add(1)
	go ep.pump(f.closing, &f.wg)
	return ep
}

func (f *tcpFabric) SetCrashed(id types.NodeID, down bool) {
	f.mu.Lock()
	flag := f.crashed[id]
	f.mu.Unlock()
	if flag != nil {
		flag.Store(down)
	}
}

func (f *tcpFabric) Close() {
	f.closed.Do(func() {
		close(f.closing)
		f.mu.Lock()
		trs := append([]*tcpnet.Transport(nil), f.transports...)
		lns := append([]net.Listener(nil), f.rejectLns...)
		f.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		f.wg.Wait()
	})
}

func (f *tcpFabric) fillStats(res *Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tr := range f.transports {
		st := tr.Stats()
		res.MsgsSent += st.Enqueued
		res.MsgsDropped += st.Dropped()
		res.BytesSent += st.BytesSent
	}
	res.MsgsDropped += f.pumpDrops.Load()
	// BytesCross needs link topology the kernel doesn't expose; it stays 0
	// on the TCP fabric.
}

// tcpEndpoint adapts one transport to the fabric's endpoint shape and
// implements the crash switch: while down, outbound sends are suppressed
// and inbound messages are discarded before the node's inbox — the
// network-level crash semantics simnet provides natively.
type tcpEndpoint struct {
	tr    *tcpnet.Transport
	down  *atomic.Bool
	out   chan *types.Message
	drops *atomic.Int64
}

func (e *tcpEndpoint) Send(to types.NodeID, m *types.Message) {
	if e.down.Load() {
		return
	}
	e.tr.Send(to, m)
}

func (e *tcpEndpoint) Inbox() <-chan *types.Message { return e.out }

// Backlog surfaces the transport's outbox occupancy so Deploy can hand it to
// pipelined replicas as their backpressure signal (simnet endpoints don't
// implement it — in-process queues have no writer to fall behind).
func (e *tcpEndpoint) Backlog() int { return e.tr.Backlog() }

// pump forwards the transport inbox into the endpoint inbox, dropping when
// the node is crashed or its inbox is full (a stopped event loop must not
// wedge the fabric).
func (e *tcpEndpoint) pump(closing <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case m := <-e.tr.Inbox():
			if e.down.Load() {
				continue
			}
			select {
			case e.out <- m:
			default:
				e.drops.Add(1)
			}
		case <-closing:
			return
		}
	}
}
