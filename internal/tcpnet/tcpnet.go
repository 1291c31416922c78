// Package tcpnet is the real-network transport: length-prefixed frames of
// the types wire codec (types.AppendMessage / types.DecodeMessage) over TCP
// connections from the standard library's net package. It exposes
// the same Send/Inbox shape as the in-process simulator (package simnet), so
// the ringbft.Replica runs unchanged in a multi-process deployment
// (cmd/ringbft-node, cmd/ringbft-client).
//
// Send never touches the network: it enqueues onto a bounded per-peer
// outbox (or drops, when the outbox is full) and returns immediately, which
// is what the pbft engine's "Send must never block" contract requires of
// the replica event loop. A dedicated writer goroutine per peer owns that
// peer's connection: it dials lazily with exponential-backoff redial,
// coalesces queued frames through one buffered writer (flushing only when
// the outbox drains), and writes under a deadline so a wedged TCP window
// tears the connection down instead of wedging the writer. BFT protocols
// tolerate lost messages, so every failure mode degrades to a counted drop,
// never a stall.
package tcpnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"ringbft/internal/types"
)

// maxFrame bounds one serialized message (guards against corrupt peers).
const maxFrame = 64 << 20

// Options tunes the transport. The zero value selects the defaults below;
// FromConfig derives Options from a types.Config.
type Options struct {
	// OutboxDepth is the per-peer outbound queue capacity. Send drops (and
	// counts) messages for a peer whose outbox is full — a peer that is
	// down or slower than the send rate costs bounded memory, never
	// blocking. Default 4096.
	OutboxDepth int
	// DialTimeout bounds one TCP connect attempt (writer goroutine only;
	// Send never dials). Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds each write/flush on an established connection. A
	// peer that accepts but stops reading (stalled TCP window) trips the
	// deadline and the writer tears the connection down and redials.
	// Default 5s.
	WriteTimeout time.Duration
	// RedialMin/RedialMax bound the exponential backoff between dial
	// attempts to an unreachable peer. Defaults 50ms / 3s.
	RedialMin time.Duration
	RedialMax time.Duration
	// Resolver, when non-nil, overrides the address table passed to New:
	// peers are looked up at first send, so addresses may become known
	// after the transport starts (the loopback-TCP harness attaches nodes
	// in arbitrary order). Must be safe for concurrent use.
	Resolver func(types.NodeID) (string, bool)
}

func (o Options) withDefaults() Options {
	if o.OutboxDepth <= 0 {
		o.OutboxDepth = 4096
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.RedialMin <= 0 {
		o.RedialMin = 50 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 3 * time.Second
	}
	if o.RedialMax < o.RedialMin {
		o.RedialMax = o.RedialMin
	}
	return o
}

// FromConfig derives transport Options from the deployment config's
// transport knobs (zero fields keep the package defaults).
func FromConfig(c types.Config) Options {
	return Options{
		OutboxDepth:  c.OutboxDepth,
		DialTimeout:  c.DialTimeout,
		WriteTimeout: c.WriteTimeout,
	}
}

// Transport is one node's attachment to the TCP network.
type Transport struct {
	self  types.NodeID
	addrs map[types.NodeID]string
	opt   Options

	ln    net.Listener
	inbox chan *types.Message

	mu    sync.Mutex
	peers map[types.NodeID]*peer
	conns map[net.Conn]struct{} // every live conn, inbound and outbound

	c counters

	closed  sync.Once
	closing chan struct{}
	// dialCtx is cancelled by Close so writers blocked inside a connect
	// syscall (a blackholed SYN) unblock immediately instead of waiting
	// out DialTimeout.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New starts a Transport for node self listening on listenAddr; addrs maps
// every peer (and this node) to its dialable address. opt tunes queue
// depths and deadlines; the zero Options selects defaults.
func New(self types.NodeID, listenAddr string, addrs map[types.NodeID]string, opt Options) (*Transport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	dialCtx, dialCancel := context.WithCancel(context.Background())
	t := &Transport{
		self:       self,
		addrs:      addrs,
		opt:        opt.withDefaults(),
		ln:         ln,
		inbox:      make(chan *types.Message, 1<<14),
		peers:      make(map[types.NodeID]*peer),
		conns:      make(map[net.Conn]struct{}),
		closing:    make(chan struct{}),
		dialCtx:    dialCtx,
		dialCancel: dialCancel,
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Inbox returns the channel of inbound messages.
func (t *Transport) Inbox() <-chan *types.Message { return t.inbox }

// Addr returns the transport's bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Close shuts the listener, every connection, and all writer goroutines,
// then waits for them to exit. Queued but unwritten messages are lost, like
// messages on the wire at process death.
func (t *Transport) Close() {
	t.closed.Do(func() {
		close(t.closing)
		t.dialCancel()
		t.ln.Close()
		t.mu.Lock()
		//ringbft:ignore mapiter every connection is closed before wg.Wait returns; teardown order of doomed conns is unobservable
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
}

// track registers a live connection so Close can tear it down (unblocking
// any in-flight read or write). It refuses new connections once closing.
func (t *Transport) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closing:
		c.Close()
		return false
	default:
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *Transport) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	c.Close()
}

// accept takes inbound connections, backing off on transient errors
// (EMFILE, ECONNABORTED) instead of hot-spinning on a tight retry loop.
func (t *Transport) accept() {
	defer t.wg.Done()
	backoff := time.Duration(0)
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closing:
				return
			default:
			}
			t.c.acceptRetries.Add(1)
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			select {
			case <-t.closing:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if !t.track(c) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes length-prefixed frames into the inbox until EOF. Any
// malformed frame — zero-length, oversized, or one types.DecodeMessage
// rejects — disconnects the sender immediately: a peer that cannot frame
// correctly cannot be trusted to delimit the next frame either, and
// resynchronizing on a broken stream risks feeding garbage into the inbox.
//
// One body buffer serves every frame of the connection: DecodeMessage
// copies what it keeps, so nothing in the inbox aliases it. It is sized by
// the bytes that have arrived, never by the header's claim (readBody), and
// a buffer grown past readBufKeep by one large frame is released once that
// frame has been decoded.
func (t *Transport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer t.untrack(c)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrame {
			t.c.badFrames.Add(1)
			return
		}
		var err error
		if buf, err = readBody(c, buf[:0], int(n)); err != nil {
			return
		}
		m := new(types.Message)
		if err := types.DecodeMessage(buf, m); err != nil {
			t.c.badFrames.Add(1)
			return
		}
		if cap(buf) > readBufKeep {
			buf = nil
		}
		select {
		case t.inbox <- m:
		case <-t.closing:
			return
		default:
			// Inbox overflow: drop, like a saturated kernel socket buffer.
			t.c.inboxDrops.Add(1)
		}
	}
}

const (
	// readBufMin is the first allocation of a connection's body buffer.
	readBufMin = 4 << 10
	// readBufKeep is the largest body buffer a connection keeps between
	// frames; ordinary consensus frames fit, state-transfer frames do not.
	readBufKeep = 64 << 10
)

// readBody appends the next n bytes of c to buf. Capacity at most doubles
// per step and each step is filled before the next, so the memory a
// connection holds is bounded by twice what its peer has actually sent (or
// readBufMin): a peer that claims maxFrame and then stalls pins a few
// kilobytes, not 64 MiB.
func readBody(c io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), cap(buf)-len(buf), readBufMin))
		buf = slices.Grow(buf, step)
		end := len(buf) + step
		if _, err := io.ReadFull(c, buf[len(buf):end]); err != nil {
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// Send enqueues m for node to and returns immediately — it never dials,
// writes, or blocks. Messages to unknown peers, to peers with a full
// outbox, or to a full local inbox (self-sends) are dropped and counted;
// the caller is a BFT protocol whose timers recover from message loss.
func (t *Transport) Send(to types.NodeID, m *types.Message) {
	if to == t.self {
		select {
		case t.inbox <- m:
		default:
			t.c.selfDrops.Add(1)
		}
		return
	}
	p := t.peer(to)
	if p == nil {
		t.c.unknownPeer.Add(1)
		return
	}
	select {
	case p.out <- m:
		t.c.enqueued.Add(1)
	default:
		t.c.outboxDrops.Add(1)
	}
}

// Backlog reports the number of frames currently queued across every
// per-peer outbox — the transport-side backpressure signal for pipelined
// consensus hosts (ringbft.Options.Backpressure). A backlog that stays
// near the configured OutboxDepth means the writers are not keeping up
// with the send rate, so a primary should stop widening its pipeline
// window before bounded outbox memory turns into counted drops. O(peers),
// no blocking: channel occupancy reads under the table lock only.
func (t *Transport) Backlog() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.peers {
		n += len(p.out)
	}
	return n
}

// resolve maps a peer to its dialable address.
func (t *Transport) resolve(to types.NodeID) (string, bool) {
	if t.opt.Resolver != nil {
		return t.opt.Resolver(to)
	}
	addr, ok := t.addrs[to]
	return addr, ok
}

// peer returns the outbound pipeline for to, creating its outbox and writer
// goroutine on first use. Returns nil when the peer has no known address
// (resolution is retried on the next Send).
func (t *Transport) peer(to types.NodeID) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[to]; ok {
		return p
	}
	select {
	case <-t.closing:
		return nil
	default:
	}
	addr, ok := t.resolve(to)
	if !ok {
		return nil
	}
	p := &peer{id: to, addr: addr, out: make(chan *types.Message, t.opt.OutboxDepth)}
	t.peers[to] = p
	t.wg.Add(1)
	go t.writer(p)
	return p
}
