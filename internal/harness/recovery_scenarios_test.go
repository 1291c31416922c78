package harness

import (
	"testing"
	"time"
)

// The crash-restart scenarios extending fig9: a backup of shard 0 crashes
// mid-run and restarts, recovering over the full async stack (simulated
// WAN, real goroutines, timers). The deterministic equivalents with strict
// state-equality assertions live in internal/ringbft/recovery_test.go;
// here we assert the recovery paths engage and the cluster stays live.

func recoveryScenarioConfig() Config {
	return Config{
		Protocol: ProtoRingBFT, Shards: 2, ReplicasPerShard: 4,
		BatchSize: 10, CrossShardPct: 0.2, Clients: 6, ClientWindow: 2,
		Duration: 3 * time.Second, Warmup: 400 * time.Millisecond,
		LatencyScale: 0.02, StripeClients: true, Records: 40000,
		LocalTimeout: 400 * time.Millisecond, RemoteTimeout: 700 * time.Millisecond,
		TransmitTimeout:    1100 * time.Millisecond,
		CheckpointInterval: 8,
		Durable:            true,
		Nemesis:            CrashRestart(800*time.Millisecond, 1600*time.Millisecond, false),
	}
}

// TestCrashRestartRecoversFromWAL: the restarted backup must come back
// through the durability subsystem (snapshot + WAL replay) and the cluster
// must keep committing throughout.
func TestCrashRestartRecoversFromWAL(t *testing.T) {
	res, err := Run(recoveryScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v, recovered=%d, stateTransfers=%d", res, res.RecoveredNodes, res.StateTransfers)
	if res.Txns == 0 {
		t.Fatal("no transactions committed")
	}
	if res.RecoveredNodes == 0 {
		t.Fatal("restarted replica did not recover from durable state")
	}
	// A backup crash must not cost liveness: the last quarter of the run
	// still commits.
	if len(res.Timeline) >= 8 {
		tail := int64(0)
		for _, v := range res.Timeline[len(res.Timeline)*3/4:] {
			tail += v
		}
		if tail == 0 {
			t.Fatalf("no commits after restart: timeline %v", res.Timeline)
		}
	}
}

// TestWipeRejoinRecoversViaStateTransfer: with the victim's data dir wiped
// while it is down, rejoining must go through checkpoint-certified peer
// state transfer.
func TestWipeRejoinRecoversViaStateTransfer(t *testing.T) {
	cfg := recoveryScenarioConfig()
	cfg.Nemesis = CrashRestart(800*time.Millisecond, 1600*time.Millisecond, true)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v, recovered=%d, stateTransfers=%d", res, res.RecoveredNodes, res.StateTransfers)
	if res.Txns == 0 {
		t.Fatal("no transactions committed")
	}
	if slowHost(t, res) {
		return
	}
	if res.StateTransfers == 0 {
		t.Fatal("wiped replica rejoined without a state transfer")
	}
}

// slowHost reports (and logs) when the wall-clock run committed too few
// sequences for the dead window to span a checkpoint interval — e.g. under
// -race instrumentation or on a heavily shared CI host. The state-transfer
// path assertions are meaningless then; the deterministic property tests
// in internal/ringbft/recovery_test.go pin the behaviour exactly.
func slowHost(t *testing.T, res Result) bool {
	t.Helper()
	if res.Txns < 400 {
		t.Logf("host too slow for the timing-based path assertion (%d txns); covered deterministically elsewhere", res.Txns)
		return true
	}
	return false
}

// TestInMemoryRestartCatchesUpViaStateTransfer: even without durability, a
// restarted (empty) replica is rescued by the state-transfer protocol — the
// paper's "replicas in the dark catch up" guarantee made concrete.
func TestInMemoryRestartCatchesUpViaStateTransfer(t *testing.T) {
	cfg := recoveryScenarioConfig()
	cfg.Durable = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v, stateTransfers=%d", res, res.StateTransfers)
	if res.Txns == 0 {
		t.Fatal("no transactions committed")
	}
	if slowHost(t, res) {
		return
	}
	if res.StateTransfers == 0 {
		t.Fatal("in-memory restarted replica never caught up via state transfer")
	}
}

// TestFig9RecoveryFigureSmoke regenerates the fig9-recovery figure at a
// compressed scale: three series (in-memory, wal-recovered,
// state-transfer), each with a live timeline.
func TestFig9RecoveryFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second figure generation")
	}
	p := Quick
	p.Shards = 2
	p.Clients = 9
	p.Duration = 400 * time.Millisecond
	fig, err := Fig9Recovery(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("fig9-recovery has %d series, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q is empty", s.Label)
		}
	}
	t.Logf("\n%s", fig.Render())
}
