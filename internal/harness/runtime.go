package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"ringbft/internal/ringbft"
	"ringbft/internal/simnet"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Runtime is the one in-process lifecycle of a deployment: Deploy builds
// it, Start launches every event loop, Crash and Restart take one node down
// and bring it back rebuilt from whatever its data directory holds (or
// from an erased one), and Close ends it all. Each node runs under its
// own sub-context, so a crash stops one event loop without stopping the
// others; done channels let Crash wait out the old loop, so Restart can
// hand its inbox and data directory to a successor. Harness runs, nemesis
// Controllers and the public ringbft.Cluster all run on it.
type Runtime struct {
	net     Fabric
	dataDir string
	fs      wal.FS
	slots   []*slot // fixed once built
	wg      sync.WaitGroup

	mu     sync.Mutex // guards the fields below and every slot's state
	ctx    context.Context
	cancel context.CancelFunc
	closed bool
}

// slot is one node of a Runtime: its inbox, how to rebuild it after a
// crash, and its current incarnation and event loop.
type slot struct {
	id      types.NodeID
	inbox   <-chan *types.Message
	rebuild func() (Node, error)

	node Node
	stop context.CancelFunc
	done chan struct{}
	down bool
}

// Deploy attaches every node of topo to net and builds it with
// Topology.Build. Each node's hooks carry its endpoint's send path, the
// transport's backlog as backpressure where it has one, and fs; decorate,
// when non-nil, adjusts them first. A rebuild after a crash reuses the same
// hooks. The runtime owns net from here on: Close closes it.
func Deploy(net Fabric, topo *Topology, tcfg types.Config, fs wal.FS, records int, decorate func(types.NodeID, *Hooks)) (*Runtime, error) {
	rt := &Runtime{net: net, dataDir: tcfg.DataDir, fs: fs}
	for _, id := range topo.Nodes() {
		// The reference committee is hosted in the first region (a single
		// location, which is exactly why it centralizes WAN traffic).
		region := simnet.ShardRegion(0)
		if id.Kind == types.KindReplica {
			region = simnet.ShardRegion(int(id.Shard))
		}
		ep := net.Attach(id, region)
		h := Hooks{Send: ep.Send, FS: fs}
		if bl, ok := ep.(interface{ Backlog() int }); ok {
			h.Backpressure = bl.Backlog
		}
		if decorate != nil {
			decorate(id, &h)
		}
		s := &slot{id: id, inbox: ep.Inbox(), rebuild: func() (Node, error) { return topo.Build(tcfg, id, records, h) }}
		var err error
		if s.node, err = s.rebuild(); err != nil {
			return nil, errors.Join(err, rt.Close())
		}
		rt.slots = append(rt.slots, s)
	}
	return rt, nil
}

// Start launches the event loop of every node that is not down. Starting
// twice, or after Close, does nothing.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ctx != nil || rt.closed {
		return
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, s := range rt.slots {
		if !s.down {
			rt.startLocked(s)
		}
	}
}

// Started reports whether Start has run.
func (rt *Runtime) Started() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctx != nil
}

// startLocked launches s's event loop; rt.mu must be held.
func (rt *Runtime) startLocked(s *slot) {
	ctx, cancel := context.WithCancel(rt.ctx)
	done := make(chan struct{})
	s.stop, s.done = cancel, done
	n, in := s.node, s.inbox
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer close(done)
		n.Run(ctx, in)
	}()
}

func (rt *Runtime) slot(id types.NodeID) *slot {
	for _, s := range rt.slots {
		if s.id == id {
			return s
		}
	}
	return nil
}

// Node returns node id's current incarnation, nil for an unknown id.
func (rt *Runtime) Node(id types.NodeID) any {
	s := rt.slot(id)
	if s == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return s.node
}

// Crash silences node id on the fabric and stops its event loop, returning
// once the loop has exited. Crashing a node that is down is a no-op.
func (rt *Runtime) Crash(id types.NodeID) {
	s := rt.slot(id)
	if s == nil {
		return
	}
	rt.mu.Lock()
	if s.down {
		rt.mu.Unlock()
		return
	}
	s.down = true
	stop, done := s.stop, s.done
	rt.mu.Unlock()
	rt.net.SetCrashed(id, true)
	if stop != nil {
		stop()
		<-done
	}
}

// Restart revives a crashed node: its old incarnation's WAL is closed,
// with wipe its data directory is erased (the wipe-and-rejoin fault), and
// it is rebuilt from whatever survives there; its event loop runs again
// once the runtime has started. Restarting a node that is not down is a
// no-op; restarting after Close is an error.
func (rt *Runtime) Restart(id types.NodeID, wipe bool) error {
	s := rt.slot(id)
	if s == nil {
		return fmt.Errorf("harness: restart: no node %v", id)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return fmt.Errorf("harness: restart %v: runtime closed", id)
	}
	if !s.down {
		return nil
	}
	var err error
	if c, ok := s.node.(io.Closer); ok {
		err = c.Close()
	}
	if err == nil && wipe {
		err = ringbft.WipeReplica(rt.dataDir, id, rt.fs)
	}
	var n Node
	if err == nil {
		n, err = s.rebuild()
	}
	if err != nil {
		return fmt.Errorf("harness: restart %v: %w", id, err)
	}
	s.node, s.down = n, false
	rt.net.SetCrashed(id, false)
	if rt.ctx != nil {
		rt.startLocked(s)
	}
	return nil
}

// Close stops every event loop and waits for it, closes the fabric, then
// closes every node's WAL. The runtime cannot start again; node state stays
// readable.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	if rt.cancel != nil {
		rt.cancel()
	}
	var closers []io.Closer
	for _, s := range rt.slots {
		if c, ok := s.node.(io.Closer); ok {
			closers = append(closers, c)
		}
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.net.Close()
	var errs []error
	for _, c := range closers {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}
