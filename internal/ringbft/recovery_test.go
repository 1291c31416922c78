package ringbft

import (
	"testing"
	"testing/quick"
	"time"

	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// These are the acceptance tests of the durability subsystem: a replica is
// killed mid-run at an arbitrary sequence (including right at snapshot
// boundaries), restarted from whatever survives on disk — or from nothing,
// after a wipe — and must converge to the identical canonical state an
// undisturbed cluster reaches, through WAL replay, snapshot recovery, and
// checkpoint-certified peer state transfer.

const (
	recShards   = 2
	recReplicas = 4
	recInterval = 4 // checkpoint + snapshot interval for fast stabilization
)

func durableCfg(cfg *types.Config) {
	cfg.CheckpointInterval = recInterval
	cfg.SnapshotInterval = recInterval
}

// recBatchAt builds the i-th workload batch: an alternating mix of
// single-shard and cross-shard transactions over a small key space so the
// workload exercises conflicts, Σ accumulation, and both execution paths.
func recBatchAt(i int) *types.Batch {
	shards := []types.ShardID{types.ShardID(i % recShards)}
	if i%3 == 0 {
		shards = []types.ShardID{0, 1}
	}
	return mkBatch(types.ClientID(i+1), uint64(i+1), recShards, shards, uint64(2+i%5))
}

// runRecoveryWorkload drives total batches through a durable cluster,
// killing victim after batch kill and restarting it after batch restart
// (kill == restart restarts it immediately, with nothing missed). wipe
// erases the victim's data dir while it is down; corruptSnap damages its
// newest snapshot file instead (a torn snapshot write). A negative kill
// runs undisturbed.
func runRecoveryWorkload(t *testing.T, total, kill, restart int, wipe, corruptSnap bool) *cluster {
	t.Helper()
	c := newDurableCluster(t, recShards, recReplicas, durableCfg)
	victim := types.ReplicaNode(0, recReplicas-1) // a backup: no view change needed
	for i := 0; i < total; i++ {
		if kill >= 0 && i == kill {
			c.kill(victim)
			if wipe {
				c.wipe(victim)
			}
			if corruptSnap {
				c.corruptNewestSnapshot(victim)
			}
		}
		if kill >= 0 && i == restart {
			c.restart(victim)
		}
		c.submit(types.ClientID(i+1), recBatchAt(i))
	}
	if kill >= 0 && restart >= total {
		c.restart(victim)
	}
	// Flush retransmissions, state-transfer retries, and stragglers.
	for i := 0; i < 4; i++ {
		c.tick(c.cfg.TransmitTimeout + time.Millisecond)
	}
	return c
}

// corruptNewestSnapshot flips bytes in the victim's newest snapshot file,
// simulating a crash that tore the snapshot mid-write.
func (c *cluster) corruptNewestSnapshot(id types.NodeID) {
	c.t.Helper()
	dir := wal.Join(ReplicaDir(c.cfg.DataDir, id), "snap")
	names, err := c.fs.ReadDir(dir)
	if err != nil || len(names) == 0 {
		return // no snapshot yet — nothing to tear
	}
	name := wal.Join(dir, names[len(names)-1])
	data, ok := c.fs.ReadFile(name)
	if !ok || len(data) < 8 {
		return
	}
	data[len(data)/2] ^= 0xFF
	c.fs.WriteFile(name, data)
}

// digestsOf snapshots every replica's store digest keyed by node.
func digestsOf(c *cluster) map[types.NodeID]types.Digest {
	out := make(map[types.NodeID]types.Digest, len(c.replicas))
	for id, r := range c.replicas {
		out[id] = r.Store().Digest()
	}
	return out
}

// assertRecovered checks the convergence contract of a disturbed run
// against its undisturbed reference.
func assertRecovered(t *testing.T, c *cluster, ref map[types.NodeID]types.Digest, total int) {
	t.Helper()
	victim := types.ReplicaNode(0, recReplicas-1)
	// Liveness: every batch completed despite the fault.
	for i := 0; i < total; i++ {
		if got := c.responses(types.ClientID(i+1), recBatchAt(i).Digest()); got < c.cfg.F()+1 {
			t.Fatalf("batch %d got %d responses, want >= %d", i, got, c.cfg.F()+1)
		}
	}
	// Safety: every replica — including the restarted victim — holds the
	// identical state the undisturbed run reaches.
	for id, r := range c.replicas {
		if got, want := r.Store().Digest(), ref[id]; got != want {
			t.Fatalf("replica %v state digest diverges from undisturbed run", id)
		}
		if err := r.Chain().Verify(); err != nil {
			t.Fatalf("replica %v chain does not verify: %v", id, err)
		}
		if n := r.Stats().DurErrors; n != 0 {
			t.Fatalf("replica %v recorded %d durability errors", id, n)
		}
		if n := r.Stats().LockedKeys; n != 0 {
			t.Fatalf("replica %v leaked %d locks", id, n)
		}
	}
	if _, alive := c.replicas[victim]; !alive {
		t.Fatal("victim not restarted")
	}
}

// TestCrashRestartImmediateWALRecovery: a replica killed and immediately
// restarted (nothing missed) must rebuild its exact pre-crash state from
// snapshot + WAL replay alone — identical ledger blocks, store, and
// watermarks — and then commit the identical remaining block sequence,
// with no state transfer involved.
func TestCrashRestartImmediateWALRecovery(t *testing.T) {
	const total, kill = 20, 9
	ref := runRecoveryWorkload(t, total, -1, -1, false, false)
	refDigests := digestsOf(ref)
	refVictim := ref.replicas[types.ReplicaNode(0, recReplicas-1)]

	c := runRecoveryWorkload(t, total, kill, kill, false, false)
	assertRecovered(t, c, refDigests, total)
	victim := c.replicas[types.ReplicaNode(0, recReplicas-1)]
	if !victim.Recovered() {
		t.Fatal("victim did not recover from disk")
	}
	if n := victim.Stats().StateTransfers; n != 0 {
		t.Fatalf("immediate restart needed %d state transfers (WAL replay insufficient)", n)
	}
	// The committed block sequence is identical to the undisturbed run's:
	// same height, same per-sequence batch digests.
	if victim.Chain().Height() != refVictim.Chain().Height() {
		t.Fatalf("victim height %d, undisturbed %d", victim.Chain().Height(), refVictim.Chain().Height())
	}
	refBySeq := make(map[types.SeqNum]types.Digest)
	for _, b := range refVictim.Chain().Blocks()[1:] {
		refBySeq[b.Seq] = b.Digest
	}
	for _, b := range victim.Chain().Blocks()[1:] {
		if want, ok := refBySeq[b.Seq]; ok && b.Digest != want {
			t.Fatalf("victim block at seq %d differs from undisturbed run", b.Seq)
		}
	}
	if victim.Stats().KMax != refVictim.Stats().KMax {
		t.Fatalf("victim kmax %d, undisturbed %d", victim.Stats().KMax, refVictim.Stats().KMax)
	}
}

// TestPropertyCrashRestartConvergence is the crash-recovery property test:
// for random kill and restart sequences — including kills landing exactly
// on snapshot boundaries and restarts after long dark periods — the
// restarted replica converges to the undisturbed run's state, via WAL
// replay when nothing was missed and checkpoint-certified state transfer
// when the gap exceeds a checkpoint interval.
func TestPropertyCrashRestartConvergence(t *testing.T) {
	const total = 24
	ref := runRecoveryWorkload(t, total, -1, -1, false, false)
	refDigests := digestsOf(ref)

	f := func(killRaw, gapRaw uint8) bool {
		kill := 2 + int(killRaw)%10 // batches 2..11, covers snapshot boundaries
		gap := int(gapRaw) % 8      // 0 = immediate restart (pure WAL recovery)
		restart := kill + gap       // batches missed while dead
		c := runRecoveryWorkload(t, total, kill, restart, false, false)
		assertRecovered(t, c, refDigests, total)
		victim := c.replicas[types.ReplicaNode(0, recReplicas-1)]
		if gap == 0 && victim.Stats().StateTransfers != 0 {
			t.Logf("kill=%d gap=0: unexpected state transfer", kill)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWipeRejoinStateTransfer is the second acceptance variant: the
// victim's data directory is wiped while it is down, so it rejoins with
// nothing and must recover the full canonical state through peer state
// transfer, validated against a checkpoint certificate it verified itself.
func TestPropertyWipeRejoinStateTransfer(t *testing.T) {
	const total = 24
	ref := runRecoveryWorkload(t, total, -1, -1, false, false)
	refDigests := digestsOf(ref)

	f := func(killRaw uint8) bool {
		kill := 2 + int(killRaw)%8
		restart := kill + 2
		c := runRecoveryWorkload(t, total, kill, restart, true, false)
		assertRecovered(t, c, refDigests, total)
		victim := c.replicas[types.ReplicaNode(0, recReplicas-1)]
		if victim.Stats().StateTransfers == 0 {
			t.Logf("kill=%d: wiped replica converged without a state transfer", kill)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTornSnapshotFallsBack: the newest snapshot is torn by the crash;
// recovery must fall back (older snapshot or WAL-only, and state transfer
// for whatever the fallback cannot cover) and still converge.
func TestCrashTornSnapshotFallsBack(t *testing.T) {
	const total, kill = 24, 10
	ref := runRecoveryWorkload(t, total, -1, -1, false, false)
	refDigests := digestsOf(ref)
	c := runRecoveryWorkload(t, total, kill, kill+3, false, true)
	assertRecovered(t, c, refDigests, total)
}

// TestWALBoundsLedgerMemory: with durability enabled, stable checkpoints
// prune the in-memory chain — the unbounded-growth fix of the durability
// subsystem, proven through the full consensus stack.
func TestWALBoundsLedgerMemory(t *testing.T) {
	c := newDurableCluster(t, recShards, recReplicas, durableCfg)
	const total = 40
	for i := 0; i < total; i++ {
		c.submit(types.ClientID(i+1), recBatchAt(i))
	}
	for id, r := range c.replicas {
		h := r.Chain().Height()
		retained := len(r.Chain().Blocks()) - 1
		if h < 2*recInterval {
			t.Fatalf("replica %v only reached height %d", id, h)
		}
		if retained >= h {
			t.Fatalf("replica %v retains all %d blocks (pruning never ran)", id, retained)
		}
		_, baseIdx := r.Chain().Base()
		if baseIdx == 0 {
			t.Fatalf("replica %v chain base never advanced", id)
		}
		if err := r.Chain().Verify(); err != nil {
			t.Fatalf("replica %v pruned chain does not verify: %v", id, err)
		}
		if n := r.Stats().DurErrors; n != 0 {
			t.Fatalf("replica %v durability errors: %d", id, n)
		}
	}
}
