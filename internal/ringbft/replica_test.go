package ringbft

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// cluster is a deterministic in-memory test harness: z shards × n replicas
// wired through a message queue pumped to quiescence, with an injectable
// clock and a drop filter for fault injection. A cluster built by
// newDurableCluster backs every replica with the wal subsystem on a shared
// MemFS, enabling kill / restart / wipe fault injection.
type cluster struct {
	t        testing.TB
	cfg      types.Config
	replicas map[types.NodeID]*Replica
	queue    []routed
	drop     func(from, to types.NodeID, m *types.Message) bool
	client   map[types.NodeID][]*types.Message // responses per client
	now      time.Time

	kg      *crypto.Keygen
	n       int
	records int
	fs      *wal.MemFS // nil = in-memory-only replicas
	nopAuth bool       // replicas spawned from now on run under crypto.NopAuth
}

type routed struct {
	from, to types.NodeID
	m        *types.Message
}

func newCluster(t testing.TB, z, n int) *cluster { return newClusterWith(t, z, n, nil) }

// newClusterWith builds a cluster with a config mutator applied before the
// replicas are constructed.
func newClusterWith(t testing.TB, z, n int, mutate func(*types.Config)) *cluster {
	return newClusterFS(t, z, n, mutate, nil)
}

// newDurableCluster builds a cluster whose replicas run the durability
// subsystem against a shared in-memory filesystem, so tests can kill,
// restart, and wipe replicas.
func newDurableCluster(t *testing.T, z, n int, mutate func(*types.Config)) *cluster {
	return newClusterFS(t, z, n, mutate, wal.NewMemFS())
}

func newClusterFS(t testing.TB, z, n int, mutate func(*types.Config), fs *wal.MemFS) *cluster {
	t.Helper()
	cfg := types.DefaultConfig(z, n)
	cfg.BatchSize = 2
	if fs != nil {
		cfg.DataDir = "data"
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := &cluster{
		t: t, cfg: cfg,
		replicas: make(map[types.NodeID]*Replica),
		client:   make(map[types.NodeID][]*types.Message),
		now:      time.Unix(0, 0),
		kg:       crypto.NewKeygen(7),
		n:        n,
		records:  64,
		fs:       fs,
	}
	for s := 0; s < z; s++ {
		for i := 0; i < n; i++ {
			c.kg.Register(types.ReplicaNode(types.ShardID(s), i))
		}
	}
	for s := 0; s < z; s++ {
		for i := 0; i < n; i++ {
			c.spawn(types.ReplicaNode(types.ShardID(s), i))
		}
	}
	return c
}

// spawn builds (or rebuilds, after kill) the replica id, recovering from
// the shared filesystem when the cluster is durable.
func (c *cluster) spawn(id types.NodeID) *Replica {
	c.t.Helper()
	peers := make([]types.NodeID, c.n)
	for i := 0; i < c.n; i++ {
		peers[i] = types.ReplicaNode(id.Shard, i)
	}
	ring, err := c.kg.Ring(id)
	if err != nil {
		c.t.Fatal(err)
	}
	var auth crypto.Authenticator = ring
	if c.nopAuth {
		auth = crypto.NopAuth{}
	}
	opts := Options{
		Config: c.cfg, Shard: id.Shard, Self: id, Peers: peers,
		Auth: auth,
		Send: func(from types.NodeID) Sender {
			return func(to types.NodeID, m *types.Message) {
				c.queue = append(c.queue, routed{from, to, m})
			}
		}(id),
		Clock: func() time.Time { return c.now },
	}
	if c.fs != nil {
		m, rec, err := OpenDurability(c.cfg, id, c.fs)
		if err != nil {
			c.t.Fatalf("open durability for %v: %v", id, err)
		}
		opts.Durability = m
		opts.Recovered = rec
	}
	r := New(opts)
	r.Preload(c.records)
	c.replicas[id] = r
	return r
}

// kill crashes replica id: it stops receiving and sending. Its durability
// manager is abandoned without Close, exactly like a process crash.
func (c *cluster) kill(id types.NodeID) { delete(c.replicas, id) }

// restart rebuilds replica id from whatever survives on the shared
// filesystem and rejoins it to the cluster.
func (c *cluster) restart(id types.NodeID) *Replica { return c.spawn(id) }

// wipe deletes replica id's data directory (the wiped-rejoin fault).
func (c *cluster) wipe(id types.NodeID) {
	if err := WipeReplica(c.cfg.DataDir, id, c.fs); err != nil {
		c.t.Fatal(err)
	}
}

// pump delivers queued messages until quiescence.
func (c *cluster) pump() {
	for guard := 0; len(c.queue) > 0; guard++ {
		if guard > 100000 {
			c.t.Fatal("message storm: pump did not quiesce")
		}
		q := c.queue
		c.queue = nil
		for _, r := range q {
			if c.drop != nil && c.drop(r.from, r.to, r.m) {
				continue
			}
			if r.to.Kind == types.KindClient {
				c.client[r.to] = append(c.client[r.to], r.m)
				continue
			}
			if rep, ok := c.replicas[r.to]; ok {
				rep.HandleMessage(r.m)
			}
		}
	}
}

// tick advances the virtual clock by d and fires every replica's timers, in
// canonical node order so that two runs compared block for block see the
// same traffic order.
func (c *cluster) tick(d time.Duration) {
	c.now = c.now.Add(d)
	for _, id := range types.SortedNodeKeys(c.replicas) {
		c.replicas[id].HandleTick(c.now)
	}
	c.pump()
}

// submit injects a client request at the initiator shard's replica 0 (the
// view-0 primary) and pumps to quiescence.
func (c *cluster) submit(client types.ClientID, b *types.Batch) {
	m := &types.Message{
		Type: types.MsgClientRequest, From: types.ClientNode(client),
		Batch: b, Digest: b.Digest(),
	}
	c.queue = append(c.queue, routed{types.ClientNode(client), types.ReplicaNode(b.Initiator(), 0), m})
	c.pump()
}

// assertNoExecErrors fails the test when any replica mapped an execution
// error to the sentinel result 0 — on the happy path that means Σ
// accumulation silently broke.
func (c *cluster) assertNoExecErrors() {
	c.t.Helper()
	for id, r := range c.replicas {
		if n := r.Stats().ExecErrors; n != 0 {
			c.t.Fatalf("replica %v recorded %d exec errors (broken Σ accumulation)", id, n)
		}
	}
}

// responses counts matching client responses for a digest.
func (c *cluster) responses(client types.ClientID, d types.Digest) int {
	n := 0
	for _, m := range c.client[types.ClientNode(client)] {
		if m.Type == types.MsgResponse && m.Digest == d {
			n++
		}
	}
	return n
}

// mkBatch builds a cross-shard batch touching one key per shard in shards.
func mkBatch(client types.ClientID, seq uint64, z int, shards []types.ShardID, keyIdx uint64) *types.Batch {
	var t types.Txn
	t.ID = types.TxnID{Client: client, Seq: seq}
	t.Delta = 5
	for _, s := range shards {
		k := types.Key(uint64(s) + keyIdx*uint64(z))
		t.Reads = append(t.Reads, k)
		t.Writes = append(t.Writes, k)
	}
	return &types.Batch{Txns: []types.Txn{t}, Involved: shards}
}

// TestExecuteBatchCountsErrors: a transaction whose remote read is missing
// from Σ yields the sentinel result 0, writes nothing, and is counted in
// Stats.ExecErrors; its neighbours in the batch execute normally.
func TestExecuteBatchCountsErrors(t *testing.T) {
	const z = 2
	c := newCluster(t, z, 4)
	r := c.replicas[types.ReplicaNode(0, 0)]
	both := []types.ShardID{0, 1}
	b := &types.Batch{Involved: both}
	for i := uint64(0); i < 3; i++ {
		b.Txns = append(b.Txns, mkBatch(1, i+1, z, both, 2+i).Txns[0])
	}
	// Σ carries the shard-1 reads of txns 0 and 2 only.
	remote := map[types.Key]types.Value{b.Txns[0].Reads[1]: 7, b.Txns[2].Reads[1]: 9}
	got := r.executeBatch(b, remote)
	for i, carried := range []types.Value{7, 0, 9} {
		k := b.Txns[i].Writes[0]
		want, stored := types.Value(0), types.Value(k)
		if i != 1 {
			want = 5 + types.Value(k) + carried
			stored += want
		}
		if got[i] != want {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], want)
		}
		if v := r.Store().Get(k); v != stored {
			t.Fatalf("txn %d left key %d at %d, want %d", i, k, v, stored)
		}
	}
	if n := r.Stats().ExecErrors; n != 1 {
		t.Fatalf("ExecErrors = %d, want 1", n)
	}
}

func TestSingleShardExecution(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{1}, 2)
	c.submit(1, b)
	d := b.Digest()
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	// Every replica of shard 1 executed; other shards untouched.
	k := b.Txns[0].Writes[0]
	for id, r := range c.replicas {
		if id.Shard == 1 {
			want := types.Value(k) + (types.Value(k) + 5)
			if got := r.Store().Get(k); got != want {
				t.Fatalf("replica %v value = %d, want %d", id, got, want)
			}
			if r.Chain().Height() != 1 {
				t.Fatalf("replica %v ledger height = %d, want 1", id, r.Chain().Height())
			}
		} else if r.Chain().Height() != 0 {
			t.Fatalf("replica %v (uninvolved) ledger height = %d, want 0", id, r.Chain().Height())
		}
	}
	c.assertNoExecErrors()
}

func TestCrossShardTwoShards(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{0, 2}, 3)
	c.submit(1, b)
	d := b.Digest()
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	// combined = Δ + v(k0) + v(k2); each write key += combined on its shard.
	k0, k2 := b.Txns[0].Writes[0], b.Txns[0].Writes[1]
	combined := types.Value(5) + types.Value(k0) + types.Value(k2)
	for id, r := range c.replicas {
		switch id.Shard {
		case 0:
			if got := r.Store().Get(k0); got != types.Value(k0)+combined {
				t.Fatalf("replica %v k0 = %d, want %d", id, got, types.Value(k0)+combined)
			}
		case 2:
			if got := r.Store().Get(k2); got != types.Value(k2)+combined {
				t.Fatalf("replica %v k2 = %d, want %d", id, got, types.Value(k2)+combined)
			}
		}
	}
	// Locks fully released everywhere.
	for id, r := range c.replicas {
		if n := r.Stats().LockedKeys; n != 0 {
			t.Fatalf("replica %v still holds %d locks", id, n)
		}
	}
	c.assertNoExecErrors()
}

func TestCrossShardAllShards(t *testing.T) {
	c := newCluster(t, 4, 4)
	b := mkBatch(2, 1, 4, []types.ShardID{0, 1, 2, 3}, 1)
	c.submit(2, b)
	if got := c.responses(2, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	for id, r := range c.replicas {
		if r.Chain().Height() != 1 {
			t.Fatalf("replica %v height %d, want 1 (all shards involved)", id, r.Chain().Height())
		}
	}
	c.assertNoExecErrors()
}

// TestComplexCSTRemoteReads: a transaction whose write on shard 0 depends on
// reads owned by shards 1 and 2 (complex cst, Section 8.8). The Σ
// accumulation in Forward/Execute messages must deliver those values.
func TestComplexCSTRemoteReads(t *testing.T) {
	z := 3
	c := newCluster(t, z, 4)
	k0 := types.Key(0 + 4*uint64(z)) // shard 0
	k1 := types.Key(1 + 5*uint64(z)) // shard 1
	k2 := types.Key(2 + 6*uint64(z)) // shard 2
	txn := types.Txn{
		ID:     types.TxnID{Client: 3, Seq: 1},
		Reads:  []types.Key{k0, k1, k2},
		Writes: []types.Key{k0},
		Delta:  7,
	}
	b := &types.Batch{Txns: []types.Txn{txn}, Involved: []types.ShardID{0, 1, 2}}
	c.submit(3, b)
	if got := c.responses(3, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	combined := types.Value(7) + types.Value(k0) + types.Value(k1) + types.Value(k2)
	for id, r := range c.replicas {
		if id.Shard != 0 {
			continue
		}
		if got := r.Store().Get(k0); got != types.Value(k0)+combined {
			t.Fatalf("replica %v k0 = %d, want %d (remote reads lost)", id, got, types.Value(k0)+combined)
		}
	}
	c.assertNoExecErrors()
}

// TestConflictingCSTsSameOrder (Theorem 6.2/6.3): two conflicting
// cross-shard batches must execute in the same order at every replica of
// every involved shard, and both must complete (no deadlock).
func TestConflictingCSTsSameOrder(t *testing.T) {
	c := newCluster(t, 3, 4)
	shards := []types.ShardID{0, 1, 2}
	b1 := mkBatch(1, 1, 3, shards, 9)
	b2 := mkBatch(2, 1, 3, shards, 9) // same keys -> conflict
	m1 := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b1, Digest: b1.Digest()}
	m2 := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(2), Batch: b2, Digest: b2.Digest()}
	// Inject both before pumping so they interleave through consensus.
	c.queue = append(c.queue,
		routed{types.ClientNode(1), types.ReplicaNode(0, 0), m1},
		routed{types.ClientNode(2), types.ReplicaNode(0, 0), m2},
	)
	c.pump()
	if got := c.responses(1, b1.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client 1 got %d responses", got)
	}
	if got := c.responses(2, b2.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client 2 got %d responses", got)
	}
	// Identical cross-shard block order across all replicas of all shards.
	var ref []types.Digest
	for id, r := range c.replicas {
		order := r.Chain().CrossOrder()
		if len(order) != 2 {
			t.Fatalf("replica %v ordered %d cross-shard blocks, want 2", id, len(order))
		}
		if ref == nil {
			ref = order
			continue
		}
		for i := range ref {
			if order[i] != ref[i] {
				t.Fatalf("replica %v conflicting-cst order diverges (Consistence violated)", id)
			}
		}
	}
	// Final value reflects both executions at every replica.
	for id, r := range c.replicas {
		if n := r.Stats().LockedKeys; n != 0 {
			t.Fatalf("replica %v leaked %d locks", id, n)
		}
	}
	c.assertNoExecErrors()
}

// TestForwardRetransmission (attack C1): all Forward messages between shard
// 0 and shard 1 are dropped initially; the transmit timer must recover the
// transaction once the link heals.
func TestForwardRetransmission(t *testing.T) {
	c := newCluster(t, 2, 4)
	blocked := true
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		return blocked && m.Type == types.MsgForward &&
			from.Kind == types.KindReplica && from.Shard == 0 && to.Shard == 1
	}
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got != 0 {
		t.Fatalf("client answered despite severed link (%d responses)", got)
	}
	// Heal and let the transmit timer fire.
	blocked = false
	c.tick(c.cfg.TransmitTimeout + time.Millisecond)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("retransmission did not recover: %d responses", got)
	}
	retr := int64(0)
	for id, r := range c.replicas {
		if id.Shard == 0 {
			retr += r.Stats().Retransmits
		}
	}
	if retr == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestPrimaryFailureViewChange (attack A2 / Fig 9): the primary of shard 0
// crashes; backups must view-change and execute the pending request under
// the new primary.
func TestPrimaryFailureViewChange(t *testing.T) {
	c := newCluster(t, 1, 4)
	dead := types.ReplicaNode(0, 0)
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		return from == dead || to == dead
	}
	b := mkBatch(1, 1, 1, []types.ShardID{0}, 3)
	// Client times out on the primary and broadcasts to all replicas (A1).
	m := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest()}
	for i := 0; i < 4; i++ {
		c.queue = append(c.queue, routed{types.ClientNode(1), types.ReplicaNode(0, i), m})
	}
	c.pump()
	if got := c.responses(1, b.Digest()); got != 0 {
		t.Fatalf("executed with crashed primary before view change: %d", got)
	}
	// Local timers expire; replicas view-change to replica 1 and commit.
	for i := 0; i < 4; i++ {
		c.tick(c.cfg.LocalTimeout + time.Millisecond)
	}
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("view change did not recover the request: %d responses", got)
	}
	for id, r := range c.replicas {
		if id == dead {
			continue
		}
		if v := r.Engine().View(); v == 0 {
			t.Fatalf("replica %v still in view 0", id)
		}
	}
}

// TestRemoteViewChange (attack C2): shard 0's primary replicates a cst but
// Forwards from all of shard 0 reach only one replica of shard 1 — fewer
// than f+1 — so shard 1 starves. Its remote timer must fire, complain to
// shard 0, and shard 0's retransmission (all its replicas re-Forward) must
// unblock shard 1.
func TestRemoteViewChange(t *testing.T) {
	c := newCluster(t, 2, 4)
	partial := true
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if !partial {
			return false
		}
		// Only the index-0 Forward gets through; peers' relays of it are
		// also suppressed so shard 1 cannot reach f+1 = 2 copies.
		if m.Type == types.MsgForward && from.Shard == 0 && to.Shard == 1 {
			return from.Index != 0
		}
		if m.Type == types.MsgForward && from.Shard == 1 && to.Shard == 1 {
			return true // suppress local re-sharing of the single copy
		}
		return false
	}
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 4)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got != 0 {
		t.Fatal("completed despite partial communication")
	}
	// Remote timer fires at shard 1 -> RemoteView -> shard 0 retransmits.
	c.tick(c.cfg.RemoteTimeout + time.Millisecond)
	partial = false
	c.tick(c.cfg.TransmitTimeout + time.Millisecond)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("remote view change did not recover: %d responses", got)
	}
	complaints := int64(0)
	for id, r := range c.replicas {
		if id.Shard == 1 {
			complaints += r.Stats().RemoteViews
		}
	}
	if complaints == 0 {
		t.Fatal("no RemoteView complaints recorded")
	}
}

// TestDuplicateClientRequestAnsweredFromCache (attack A1): a Byzantine
// client re-sending an executed request gets the stored response and cannot
// trigger re-execution.
func TestDuplicateClientRequestAnsweredFromCache(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0}, 5)
	c.submit(1, b)
	first := c.responses(1, b.Digest())
	if first < c.cfg.F()+1 {
		t.Fatalf("initial execution failed: %d", first)
	}
	h := c.replicas[types.ReplicaNode(0, 1)].Chain().Height()
	c.submit(1, b) // duplicate
	if got := c.responses(1, b.Digest()); got <= first {
		t.Fatalf("duplicate not answered from cache: %d then %d", first, got)
	}
	if c.replicas[types.ReplicaNode(0, 1)].Chain().Height() != h {
		t.Fatal("duplicate request re-executed")
	}
}

// TestWrongInitiatorRouted: a request sent to a non-initiator shard is
// routed to the initiator's primary (Fig 5 line 9).
func TestWrongInitiatorRouted(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{0, 1}, 6)
	m := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest()}
	// Delivered to shard 2 (not involved at all).
	c.queue = append(c.queue, routed{types.ClientNode(1), types.ReplicaNode(2, 0), m})
	c.pump()
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("misrouted request not recovered: %d responses", got)
	}
}

// TestLedgerChainsVerify: after a mixed workload, every replica's ledger
// hash chain and Merkle roots verify.
func TestLedgerChainsVerify(t *testing.T) {
	c := newCluster(t, 3, 4)
	for i := uint64(1); i <= 5; i++ {
		var shards []types.ShardID
		if i%2 == 0 {
			shards = []types.ShardID{0, 1, 2}
		} else {
			shards = []types.ShardID{types.ShardID(i % 3)}
		}
		b := mkBatch(types.ClientID(i), i, 3, shards, 10+i)
		c.submit(types.ClientID(i), b)
	}
	for id, r := range c.replicas {
		if err := r.Chain().Verify(); err != nil {
			t.Fatalf("replica %v ledger verification failed: %v", id, err)
		}
	}
}

// TestNonConflictingCSTsDoNotBlock: csts on disjoint keys ordered at the
// same shard proceed without waiting on each other's remote rotations.
func TestNonConflictingCSTsDoNotBlock(t *testing.T) {
	c := newCluster(t, 3, 4)
	b1 := mkBatch(1, 1, 3, []types.ShardID{0, 1}, 11)
	b2 := mkBatch(2, 1, 3, []types.ShardID{0, 2}, 12)
	m1 := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b1, Digest: b1.Digest()}
	m2 := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(2), Batch: b2, Digest: b2.Digest()}
	c.queue = append(c.queue,
		routed{types.ClientNode(1), types.ReplicaNode(0, 0), m1},
		routed{types.ClientNode(2), types.ReplicaNode(0, 0), m2},
	)
	c.pump()
	if got := c.responses(1, b1.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("b1 incomplete: %d", got)
	}
	if got := c.responses(2, b2.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("b2 incomplete: %d", got)
	}
}
