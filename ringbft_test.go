package ringbft

import (
	"context"
	"testing"
	"time"

	"ringbft/internal/leakcheck"
)

func startCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestClusterSubmitSingleShard(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 3, ReplicasPerShard: 4})
	k := c.KeyOf(1, 10)
	before := c.Read(k, 0)
	res, err := c.Submit(context.Background(), Txn{
		Reads: []Key{k}, Writes: []Key{k}, Delta: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	want := before + 5 + before
	// combined = Δ + read(k); write adds combined to k.
	if got := res[0]; got != before+5 {
		t.Fatalf("result = %d, want %d", got, before+5)
	}
	// Give replicas a moment to apply, then check state on every replica.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if got := c.Read(k, i); got != want {
			t.Fatalf("replica %d: value = %d, want %d", i, got, want)
		}
	}
}

func TestClusterSubmitCrossShard(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 3, ReplicasPerShard: 4})
	k0, k2 := c.KeyOf(0, 7), c.KeyOf(2, 9)
	v0, v2 := c.Read(k0, 0), c.Read(k2, 0)
	res, err := c.Submit(context.Background(), Txn{
		Reads: []Key{k0, k2}, Writes: []Key{k0, k2}, Delta: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	combined := Value(3) + v0 + v2
	if res[0] != combined {
		t.Fatalf("result = %d, want %d", res[0], combined)
	}
	time.Sleep(150 * time.Millisecond)
	if got := c.Read(k0, 1); got != v0+combined {
		t.Fatalf("k0 = %d, want %d", got, v0+combined)
	}
	if got := c.Read(k2, 1); got != v2+combined {
		t.Fatalf("k2 = %d, want %d", got, v2+combined)
	}
	if err := c.VerifyLedgers(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConcurrentSubmits(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2, ReplicasPerShard: 4})
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			k := c.KeyOf(ShardID(i%2), uint64(100+i))
			_, err := c.Submit(context.Background(), Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1})
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VerifyLedgers(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterViewChangeOnPrimaryCrash(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 1, ReplicasPerShard: 4, SubmitTimeout: 20 * time.Second})
	c.CrashReplica(0, 0)
	k := c.KeyOf(0, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 2}); err != nil {
		t.Fatalf("submit after primary crash: %v", err)
	}
}

func TestClusterLedgerGrowth(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2, ReplicasPerShard: 4})
	k := c.KeyOf(0, 1)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(context.Background(), Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	blocks := c.Ledger(0, 0)
	if len(blocks) < 4 { // genesis + 3
		t.Fatalf("ledger has %d blocks, want >= 4", len(blocks))
	}
	if blocks[0].Seq != 0 {
		t.Fatal("first block is not genesis")
	}
}

func TestSubmitEmptyBatchRejected(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 1, ReplicasPerShard: 4})
	if _, err := c.Submit(context.Background()); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.Submit(context.Background(), Txn{Delta: 1}); err == nil {
		t.Fatal("keyless txn accepted")
	}
}

// TestClusterKillRestartDurable exercises the public durability API: a
// killed replica restarts from its on-(in-memory-)disk WAL + snapshots,
// catches up, and converges with its peers.
func TestClusterKillRestartDurable(t *testing.T) {
	killRestartConverges(t, "", false)
}

// TestClusterWipeRejoin: a backup whose data directory is wiped while it is
// dead restarts empty and rejoins through checkpoint-certified state
// transfer, on the in-memory filesystem and on the real disk.
func TestClusterWipeRejoin(t *testing.T) {
	t.Run("memfs", func(t *testing.T) { killRestartConverges(t, "", true) })
	t.Run("disk", func(t *testing.T) { killRestartConverges(t, t.TempDir(), true) })
}

// killRestartConverges kills backup 3 of shard 0 on a durable cluster,
// commits through the fault, optionally wipes the backup's data directory,
// restarts it and waits until it converges with a healthy peer.
func killRestartConverges(t *testing.T, dataDir string, wipe bool) {
	c := startCluster(t, ClusterConfig{
		Shards: 2, ReplicasPerShard: 4,
		Durable: true, DataDir: dataDir, CheckpointInterval: 8,
	})
	ctx := context.Background()
	k := c.KeyOf(0, 3)
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Submit(ctx, Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(4)
	// Kill a backup, commit through the fault, restart it.
	c.KillReplica(0, 3)
	submit(12)
	if wipe {
		if err := c.WipeReplica(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RestartReplica(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.replica(0, 3).Recovered(); got == wipe {
		t.Fatalf("restarted replica recovered from disk: %v, want %v", got, !wipe)
	}
	// More traffic so checkpoints pull the restarted replica forward.
	submit(16)
	// The restarted replica converges with a healthy peer — both the key
	// value and the full ledger: the value catches up slightly before the
	// final trailing blocks land, so VerifyLedgers is part of the retry
	// loop rather than a one-shot assertion racing the catch-up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var lerr error
		if c.Read(k, 3) == c.Read(k, 1) {
			if lerr = c.VerifyLedgers(); lerr == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never converged: %d vs %d (ledgers: %v)",
				c.Read(k, 3), c.Read(k, 1), lerr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSubmitReusesClients: Submit draws its client from a free list, so a
// long-lived cluster does not attach a fresh endpoint per call, and a
// reused client keeps counting TxnID.Seq, so no replica mistakes its next
// batch for a conflicting one.
func TestSubmitReusesClients(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2, ReplicasPerShard: 4})
	clients := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.clients
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		k := c.KeyOf(ShardID(i%2), uint64(i))
		if _, err := c.Submit(ctx, Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := clients(); n != 1 {
		t.Fatalf("200 sequential Submits attached %d clients, want 1", n)
	}
	const conc = 8
	errs := make(chan error, conc)
	for i := 0; i < conc; i++ {
		go func() {
			k := c.KeyOf(ShardID(i%2), uint64(300+i))
			_, err := c.Submit(ctx, Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1})
			errs <- err
		}()
	}
	for i := 0; i < conc; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := clients(); n > conc {
		t.Fatalf("%d concurrent Submits attached %d clients, want at most %d", conc, n, conc)
	}
	c.Stop()
	for s := 0; s < c.Shards(); s++ {
		for i := 0; i < 4; i++ {
			if got := c.replica(ShardID(s), i).Evidence().Summary(); got != "evidence: none" {
				t.Errorf("replica %d/%d: %s", s, i, got)
			}
		}
	}
}

// TestClusterStopEdges: Stop before Start leaves the cluster startable, and
// RestartReplica after Stop fails instead of reopening a WAL nothing closes.
func TestClusterStopEdges(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 1, ReplicasPerShard: 4, Durable: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Start()
	k := c.KeyOf(0, 1)
	if _, err := c.Submit(context.Background(), Txn{Reads: []Key{k}, Writes: []Key{k}, Delta: 1}); err != nil {
		t.Fatalf("submit after Stop-before-Start: %v", err)
	}
	c.Stop()
	if err := c.RestartReplica(0, 3); err == nil {
		t.Fatal("RestartReplica after Stop succeeded")
	}
}

// TestClusterStopBeforeStartLeaksNothing: a cluster that never started has
// sent nothing, so its network has no delivery goroutine for Stop (which
// leaves the network open then) to strand.
func TestClusterStopBeforeStartLeaksNothing(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewCluster(ClusterConfig{Shards: 2, ReplicasPerShard: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
}
