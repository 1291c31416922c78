package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/metrics"
	"ringbft/internal/ringbft"
	"ringbft/internal/simnet"
	"ringbft/internal/tcpnet"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// endpoint is one node's attachment to the fabric; *simnet.Endpoint and
// *tcpnet.Transport both have this shape.
type endpoint interface {
	Send(to types.NodeID, m *types.Message)
	Inbox() <-chan *types.Message
}

// cluster is one RingBFT deployment wired from the layers' public
// constructors, the way ringbft.NewCluster and harness/build.go do it, so
// the benchmark owns the fabric, the instrumentation and the event loops.
type cluster struct {
	w        workload
	tcfg     types.Config
	net      *simnet.Network     // simnet workloads
	trs      []*tcpnet.Transport // tcp workloads, client transport last
	replicas []*ringbft.Replica
	inboxes  []<-chan *types.Message
	client   endpoint

	// Traced runs only.
	probes  []*probe
	reg     *metrics.Registry
	tracers []*trace.Tracer
	on      atomic.Bool // true inside the measured window

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func clusterConfig(w workload) types.Config {
	tcfg := types.DefaultConfig(shards, replicasPer)
	tcfg.BatchSize = batchSize
	tcfg.PipelineDepth = pipelineDepth
	tcfg.LocalTimeout = localTimeout
	tcfg.RemoteTimeout = remoteTimeout
	tcfg.TransmitTimeout = transmitTO
	if w.durable {
		tcfg.DataDir = "data"
	}
	return tcfg
}

// tcpOptions are harness/tcpfabric.go's: redials cycle well inside the
// protocol timers.
var tcpOptions = tcpnet.Options{
	OutboxDepth:  8192,
	DialTimeout:  time.Second,
	WriteTimeout: 2 * time.Second,
	RedialMin:    20 * time.Millisecond,
	RedialMax:    250 * time.Millisecond,
}

// build wires the cluster and its one client endpoint. With traced set,
// every replica gets a probe: its Auth, Send and wal.FS are wrapped in
// counting/timing decorators and the repo's own Tracer and Metrics are on.
// spans additionally keeps a span per handled message and per child call.
func build(w workload, seed int64, traced, spans bool) (*cluster, error) {
	c := &cluster{w: w, tcfg: clusterConfig(w)}
	if err := c.tcfg.Validate(); err != nil {
		return nil, err
	}
	built := false
	defer func() {
		if !built {
			c.stop() // closes the transports already listening
		}
	}()
	var (
		addrMu sync.Mutex
		addrs  = make(map[types.NodeID]string)
	)
	attach := func(id types.NodeID, region simnet.Region) (endpoint, func() int, error) {
		if !w.tcp {
			return c.net.Attach(id, region), nil, nil
		}
		opt := tcpOptions
		opt.Resolver = func(id types.NodeID) (string, bool) {
			addrMu.Lock()
			defer addrMu.Unlock()
			a, ok := addrs[id]
			return a, ok
		}
		tr, err := tcpnet.New(id, "127.0.0.1:0", nil, opt)
		if err != nil {
			return nil, nil, err
		}
		addrMu.Lock()
		addrs[id] = tr.Addr()
		addrMu.Unlock()
		c.trs = append(c.trs, tr)
		return tr, tr.Backlog, nil
	}
	if !w.tcp {
		c.net = simnet.New(simnet.Options{
			Latency: simnet.WANLatency{Scale: wanScale}, Seed: seed, InboxSize: 1 << 16,
		})
	}
	if traced {
		c.reg = metrics.NewRegistry()
	}
	var fs wal.FS
	if w.durable {
		fs = wal.NewMemFS()
	}

	kg := crypto.NewKeygen(seed)
	peers := make([][]types.NodeID, shards)
	for s := range peers {
		peers[s] = make([]types.NodeID, replicasPer)
		for i := range peers[s] {
			peers[s][i] = types.ReplicaNode(types.ShardID(s), i)
			kg.Register(peers[s][i])
		}
	}
	for s := 0; s < shards; s++ {
		for i := 0; i < replicasPer; i++ {
			id := peers[s][i]
			ep, backlog, err := attach(id, simnet.ShardRegion(s))
			if err != nil {
				return nil, err
			}
			ring, err := kg.Ring(id)
			if err != nil {
				return nil, err
			}
			opts := ringbft.Options{
				Config: c.tcfg, Shard: id.Shard, Self: id, Peers: peers[s],
				Auth: ring, Send: ep.Send, Backpressure: backlog,
			}
			rfs := fs
			if traced {
				p := &probe{on: &c.on, self: id, keepSpans: spans, idBase: uint64(len(c.probes)+1) << 32}
				c.probes = append(c.probes, p)
				// About 600 events/s per replica when saturated; 32768 covers a 30 s traced pass.
				tr := trace.New(1 << 15)
				c.tracers = append(c.tracers, tr)
				opts.Auth = &timedAuth{in: ring, p: p}
				opts.Send = p.send(ep.Send)
				opts.Metrics, opts.Tracer = c.reg, tr
				if fs != nil {
					rfs = &timedFS{in: fs, p: p}
				}
			}
			if rfs != nil {
				m, rec, err := ringbft.OpenDurability(c.tcfg, id, rfs)
				if err != nil {
					return nil, fmt.Errorf("open durability for %v: %w", id, err)
				}
				opts.Durability, opts.Recovered = m, rec
			}
			r := ringbft.New(opts)
			r.Preload(w.records)
			c.replicas = append(c.replicas, r)
			c.inboxes = append(c.inboxes, ep.Inbox())
		}
	}
	ep, _, err := attach(types.ClientNode(clientID), simnet.Region(0))
	if err != nil {
		return nil, err
	}
	c.client = ep
	built = true
	return c, nil
}

// start launches every replica's event loop: Replica.Run untraced, the
// probe's timing loop traced.
func (c *cluster) start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i, r := range c.replicas {
		c.wg.Add(1)
		go func(i int, r *ringbft.Replica) {
			defer c.wg.Done()
			if c.probes != nil {
				c.probes[i].run(ctx, r, c.inboxes[i], c.tcfg.LocalTimeout/4)
			} else {
				r.Run(ctx, c.inboxes[i])
			}
		}(i, r)
	}
}

// stop ends every event loop and the fabric and waits for them. Replica
// state (chains, stats, probes) is safe to read afterwards.
func (c *cluster) stop() {
	if c.cancel != nil {
		c.cancel()
	}
	c.wg.Wait()
	if c.net != nil {
		c.net.Close()
	}
	for _, tr := range c.trs {
		tr.Close()
	}
}

// span is one timed call at a layer boundary. Spans of one client request
// share its digest; parent is the span that was open when the call started
// (a child call inside a handled message) or, filled in when the spans are
// written, the client request the handled message belongs to.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Digest string `json:"digest,omitempty"`

	digest types.Digest
}

type callStat struct {
	calls int64
	d     time.Duration
}

// probe collects one replica's per-layer counters. Everything except on is
// owned by the replica's goroutine (the event loop calls Auth, Send and the
// WAL synchronously) and read after cluster.stop.
type probe struct {
	on   *atomic.Bool
	self types.NodeID

	busy       time.Duration
	handle     [numKinds]callStat
	inboxDepth []int32

	mac, verifyMAC, sign, verify callStat
	sent                         callStat
	crossSends                   int64
	walWrite, walSync            callStat
	walBytes                     int64
	walOther                     time.Duration // FS calls other than Write and Sync

	// base and end are the replica's Stats at the window's edges, taken by
	// the loop itself because Stats is only safe on the replica goroutine.
	base, end ringbft.Stats
	was       bool

	keepSpans bool
	idBase    uint64
	spans     []span
	open      uint64 // ID of the handle span in progress
}

func kindOf(t types.MsgType) int {
	switch t {
	case types.MsgClientRequest:
		return kindClientRequest
	case types.MsgPrePrepare:
		return kindPrePrepare
	case types.MsgPrepare:
		return kindPrepare
	case types.MsgCommit:
		return kindCommit
	case types.MsgCheckpoint:
		return kindCheckpoint
	case types.MsgForward:
		return kindForward
	case types.MsgExecute:
		return kindExecute
	default:
		// View-change, remote-view and state-transfer traffic: absent from
		// fault-free runs, still counted into busy time.
		return kindOther
	}
}

// run is Replica.Run with a stopwatch around every call into the replica.
func (p *probe) run(ctx context.Context, r *ringbft.Replica, inbox <-chan *types.Message, tickEvery time.Duration) {
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			if p.was {
				p.end = r.Stats()
			}
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			depth := len(inbox)
			p.edge(r)
			t0 := time.Now()
			kind := kindOf(m.Type)
			p.begin(kind, t0, m.Digest)
			r.HandleMessage(m)
			p.done(kind, t0, depth)
		case <-ticker.C:
			p.edge(r)
			t0 := time.Now()
			p.begin(kindTick, t0, types.Digest{})
			r.HandleTick(t0)
			p.done(kindTick, t0, -1)
		}
	}
}

// edge snapshots the replica's Stats when the window opens or closes.
func (p *probe) edge(r *ringbft.Replica) {
	on := p.on.Load()
	if on == p.was {
		return
	}
	if on {
		p.base = r.Stats()
	} else {
		p.end = r.Stats()
	}
	p.was = on
}

func (p *probe) begin(kind int, t0 time.Time, d types.Digest) {
	if !p.keepSpans || !p.on.Load() {
		p.open = 0
		return
	}
	p.open = p.idBase + uint64(len(p.spans)) + 1
	p.spans = append(p.spans, span{
		ID: p.open, Name: "ringbft.handle." + handleKinds[kind], Node: p.self.String(),
		Start: t0.UnixNano(), digest: d,
	})
}

func (p *probe) done(kind int, t0 time.Time, depth int) {
	end := time.Now()
	if p.open != 0 {
		p.spans[p.open-p.idBase-1].End = end.UnixNano()
		p.open = 0
	}
	if !p.on.Load() {
		return
	}
	d := end.Sub(t0)
	p.busy += d
	p.handle[kind].calls++
	p.handle[kind].d += d
	if depth >= 0 {
		p.inboxDepth = append(p.inboxDepth, int32(depth))
	}
}

// child accounts one call into a lower layer made from inside a handled
// message.
func (p *probe) child(st *callStat, name string, t0 time.Time) {
	if !p.on.Load() {
		return
	}
	end := time.Now()
	st.calls++
	st.d += end.Sub(t0)
	if p.open != 0 {
		p.spans = append(p.spans, span{
			ID: p.idBase + uint64(len(p.spans)) + 1, Parent: p.open, Name: name,
			Node: p.self.String(), Start: t0.UnixNano(), End: end.UnixNano(),
			digest: p.spans[p.open-p.idBase-1].digest,
		})
	}
}

func (p *probe) send(in func(types.NodeID, *types.Message)) ringbft.Sender {
	return func(to types.NodeID, m *types.Message) {
		t0 := time.Now()
		in(to, m)
		p.child(&p.sent, "fabric.send", t0)
		if p.on.Load() && to.Kind == types.KindReplica && to.Shard != p.self.Shard {
			p.crossSends++
		}
	}
}

// timedAuth counts and times the replica's crypto calls.
type timedAuth struct {
	in crypto.Authenticator
	p  *probe
}

func (a *timedAuth) MAC(peer types.NodeID, msg []byte) []byte {
	t0 := time.Now()
	tag := a.in.MAC(peer, msg)
	a.p.child(&a.p.mac, "crypto.mac", t0)
	return tag
}

func (a *timedAuth) VerifyMAC(peer types.NodeID, msg, tag []byte) error {
	t0 := time.Now()
	err := a.in.VerifyMAC(peer, msg, tag)
	a.p.child(&a.p.verifyMAC, "crypto.verifymac", t0)
	return err
}

func (a *timedAuth) Sign(msg []byte) []byte {
	t0 := time.Now()
	sig := a.in.Sign(msg)
	a.p.child(&a.p.sign, "crypto.sign", t0)
	return sig
}

func (a *timedAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	t0 := time.Now()
	err := a.in.Verify(signer, msg, sig)
	a.p.child(&a.p.verify, "crypto.verify", t0)
	return err
}

// timedFS counts and times what the durability layer asks of the
// filesystem: writes and syncs as calls, everything else as time only.
type timedFS struct {
	in wal.FS
	p  *probe
}

func (f *timedFS) op(t0 time.Time) {
	if f.p.on.Load() {
		f.p.walOther += time.Since(t0)
	}
}

func (f *timedFS) file(in wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{in: in, fs: f}, nil
}

func (f *timedFS) Create(name string) (wal.File, error) {
	defer f.op(time.Now())
	return f.file(f.in.Create(name))
}

func (f *timedFS) Append(name string) (wal.File, error) {
	defer f.op(time.Now())
	return f.file(f.in.Append(name))
}

func (f *timedFS) Open(name string) (wal.File, error) {
	defer f.op(time.Now())
	return f.file(f.in.Open(name))
}

func (f *timedFS) ReadDir(dir string) ([]string, error) {
	defer f.op(time.Now())
	return f.in.ReadDir(dir)
}

func (f *timedFS) Remove(name string) error {
	defer f.op(time.Now())
	return f.in.Remove(name)
}

func (f *timedFS) Rename(oldname, newname string) error {
	defer f.op(time.Now())
	return f.in.Rename(oldname, newname)
}

func (f *timedFS) MkdirAll(dir string) error {
	defer f.op(time.Now())
	return f.in.MkdirAll(dir)
}

type timedFile struct {
	in wal.File
	fs *timedFS
}

func (f *timedFile) Read(b []byte) (int, error) {
	defer f.fs.op(time.Now())
	return f.in.Read(b)
}

func (f *timedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := f.in.Write(b)
	f.fs.p.child(&f.fs.p.walWrite, "wal.write", t0)
	if f.fs.p.on.Load() {
		f.fs.p.walBytes += int64(n)
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.in.Sync()
	f.fs.p.child(&f.fs.p.walSync, "wal.sync", t0)
	return err
}

func (f *timedFile) Close() error {
	defer f.fs.op(time.Now())
	return f.in.Close()
}
