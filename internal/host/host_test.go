package host

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/pbft"
	"ringbft/internal/types"
)

// testNode is the thinnest protocol a kernel can host: PBFT dispatch plus
// the kernel's drain and timers, recording commits in sequence order.
type testNode struct {
	*Kernel
	commits map[types.SeqNum]types.Digest
}

func (n *testNode) HandleMessage(m *types.Message) {
	n.PBFT.OnMessage(m)
	n.Drain()
}

func (n *testNode) HandleTick(now time.Time) {
	n.Tick(now)
	n.Watchdog(now)
}

type routed struct {
	to types.NodeID
	m  *types.Message
}

// testShard is four kernels on real pbft engines, wired through a
// synchronous queue and a shared virtual clock.
type testShard struct {
	t     *testing.T
	nodes []*testNode
	queue []routed
	now   time.Time
}

func newTestShard(t *testing.T, depth int, tweak func(o *Options)) *testShard {
	t.Helper()
	const n = 4
	cfg := types.DefaultConfig(1, n)
	cfg.PipelineDepth = depth
	s := &testShard{t: t, now: time.Unix(1000, 0)}
	peers := make([]types.NodeID, n)
	kg := crypto.NewKeygen(7)
	for i := range peers {
		peers[i] = types.ReplicaNode(0, i)
		kg.Register(peers[i])
	}
	for i := range peers {
		ring, err := kg.Ring(peers[i])
		if err != nil {
			t.Fatal(err)
		}
		nd := &testNode{commits: make(map[types.SeqNum]types.Digest)}
		opts := Options{
			Config: cfg, Shard: 0, Self: peers[i], Peers: peers, Auth: ring,
			Send:    func(to types.NodeID, m *types.Message) { s.queue = append(s.queue, routed{to, m}) },
			Clock:   func() time.Time { return s.now },
			Handler: nd,
			Callbacks: pbft.Callbacks{Committed: func(seq types.SeqNum, b *types.Batch, d types.Digest, _ *pbft.Cert) {
				nd.Settle(b, d)
				nd.commits[seq] = d
			}},
		}
		if tweak != nil {
			tweak(&opts)
		}
		nd.Kernel = New(opts)
		s.nodes = append(s.nodes, nd)
	}
	return s
}

func (s *testShard) pump() {
	for guard := 0; len(s.queue) > 0; guard++ {
		if guard > 100000 {
			s.t.Fatal("pump did not quiesce")
		}
		r := s.queue[0]
		s.queue = s.queue[1:]
		s.nodes[r.to.Index].HandleMessage(r.m)
	}
}

// committed returns node i's committed digests in sequence order.
func (s *testShard) committed(i int) []types.Digest {
	n := s.nodes[i]
	seqs := make([]types.SeqNum, 0, len(n.commits))
	for seq := range n.commits {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	out := make([]types.Digest, len(seqs))
	for j, seq := range seqs {
		out[j] = n.commits[seq]
	}
	return out
}

func batch(i uint64) *types.Batch {
	return &types.Batch{
		Txns:     []types.Txn{{ID: types.TxnID{Client: 1, Seq: i}, Writes: []types.Key{types.Key(i)}, Delta: 1}},
		Involved: []types.ShardID{0},
	}
}

func sameOrder(t *testing.T, got, want []types.Digest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("committed %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d committed %x, want %x", i, got[i][:4], want[i][:4])
		}
	}
}

// TestDrainFIFOUnderFullWindow: requests arriving while the window is full
// wait in the queue and are proposed in arrival order as slots free up.
func TestDrainFIFOUnderFullWindow(t *testing.T) {
	const depth = 2
	s := newTestShard(t, depth, nil)
	p := s.nodes[0]
	var want []types.Digest
	for i := uint64(1); i <= 6; i++ {
		b := batch(i)
		want = append(want, b.Digest())
		p.Enqueue(b, b.Digest())
	}
	if got := p.PBFT.InFlight(); got != depth {
		t.Fatalf("in flight = %d, want the window of %d", got, depth)
	}
	if got := len(p.Queue); got != 6-depth {
		t.Fatalf("queued = %d, want %d", got, 6-depth)
	}
	s.pump()
	for i := range s.nodes {
		sameOrder(t, s.committed(i), want)
	}
	if len(p.Queue) != 0 || len(p.Awaiting) != 0 {
		t.Fatalf("book not drained: queue %d, awaiting %d", len(p.Queue), len(p.Awaiting))
	}
}

// TestUnjustifiedBatchKeepsLatch: a batch the Justify gate rejects is
// neither queued nor latched, so it is proposed once its justification
// lands.
func TestUnjustifiedBatchKeepsLatch(t *testing.T) {
	allowed := false
	s := newTestShard(t, 8, func(o *Options) {
		o.Justify = func(*types.Batch, types.Digest) bool { return allowed }
	})
	p := s.nodes[0]
	b := batch(1)
	d := b.Digest()
	p.Enqueue(b, d)
	if _, latched := p.Proposed[d]; latched || len(p.Queue) != 0 || p.PBFT.InFlight() != 0 {
		t.Fatal("unjustified batch was latched, queued or proposed")
	}
	if _, ok := p.Awaiting[d]; !ok {
		t.Fatal("unjustified batch left the awaiting set")
	}
	allowed = true
	p.Enqueue(b, d)
	s.pump()
	for i := range s.nodes {
		sameOrder(t, s.committed(i), []types.Digest{d})
	}
}

// TestPromotionReproposesSorted: a newly promoted primary proposes its
// awaiting requests in sorted-digest order, whatever order they arrived in.
func TestPromotionReproposesSorted(t *testing.T) {
	s := newTestShard(t, 8, nil)
	var want []types.Digest
	for i := uint64(1); i <= 5; i++ {
		b := batch(i)
		want = append(want, b.Digest())
		for _, n := range s.nodes {
			n.Await(b, b.Digest()) // the view-0 primary sits on them
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i][:], want[j][:]) < 0 })
	for _, n := range s.nodes {
		n.PBFT.StartViewChange(1)
	}
	s.pump()
	if !s.nodes[1].PBFT.IsPrimary() {
		t.Fatal("replica 1 was not promoted")
	}
	for i := range s.nodes {
		sameOrder(t, s.committed(i), want)
	}
}

// TestWatchdogPacedByLastViewChange: an expired request demands a view
// change only once the current view has had a full LocalTimeout.
func TestWatchdogPacedByLastViewChange(t *testing.T) {
	s := newTestShard(t, 8, nil)
	backup := s.nodes[1]
	timeout := backup.Cfg.LocalTimeout
	b := batch(1)
	backup.Await(b, b.Digest())
	backup.LastVC = s.now.Add(timeout / 2)

	s.now = s.now.Add(timeout + timeout/4) // request expired, view still young
	if !backup.Watchdog(s.now) || backup.PBFT.InViewChange() {
		t.Fatal("watchdog escalated inside the current view's timeout")
	}
	s.now = s.now.Add(timeout) // the view has had its full timeout
	if backup.Watchdog(s.now) || !backup.PBFT.InViewChange() {
		t.Fatal("watchdog did not demand a view change for an expired request")
	}
}

// TestExpiryClearsLatch: with ReproposeExpired, a primary whose latch dates
// from a dead view clears it and proposes the expired request again;
// without it (RingBFT) the latch holds.
func TestExpiryClearsLatch(t *testing.T) {
	for _, repropose := range []bool{false, true} {
		s := newTestShard(t, 8, func(o *Options) { o.ReproposeExpired = repropose })
		p := s.nodes[0]
		b := batch(1)
		d := b.Digest()
		p.Awaiting[d] = &Pending{Batch: b, Since: s.now}
		p.Proposed[d] = struct{}{} // proposed into a view that died

		s.now = s.now.Add(2 * p.Cfg.LocalTimeout)
		if !p.Watchdog(s.now) {
			t.Fatal("a primary's watchdog demanded a view change")
		}
		want := 0
		if repropose {
			want = 1
		}
		if got := p.PBFT.InFlight(); got != want {
			t.Fatalf("ReproposeExpired=%v: in flight = %d, want %d", repropose, got, want)
		}
		s.pump()
		for i := range s.nodes {
			if got := len(s.committed(i)); got != want {
				t.Fatalf("ReproposeExpired=%v: replica %d committed %d batches, want %d", repropose, i, got, want)
			}
		}
	}
}
