package harness

import (
	"testing"
	"time"

	"ringbft/internal/raceflag"
)

func smoke(t *testing.T, p Protocol, crossPct float64) Result {
	t.Helper()
	// The race detector slows the event loops 5-20x; a 100%-cross-shard
	// batch needs a full ring traversal (or, for AHL, a 3-committee 2PC)
	// to commit, so both the measurement window and the view-change
	// timeout must stretch with the build or the liveness assertions
	// flake: with the wall-clock timer unscaled, honest slow rounds expire
	// it and the run burns in view-change churn instead of committing.
	scale := time.Duration(1)
	if raceflag.Enabled {
		scale = 8
	}
	res, err := Run(Config{
		Protocol:         p,
		Shards:           3,
		ReplicasPerShard: 4,
		BatchSize:        10,
		CrossShardPct:    crossPct,
		InvolvedShards:   3,
		Clients:          4,
		ClientWindow:     2,
		Warmup:           scale * 150 * time.Millisecond,
		Duration:         scale * 400 * time.Millisecond,
		LocalTimeout:     scale * 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("%s run: %v", p, err)
	}
	return res
}

func TestRingBFTSingleShardThroughput(t *testing.T) {
	res := smoke(t, ProtoRingBFT, 0)
	if res.Txns == 0 {
		t.Fatalf("no transactions committed: %+v", res)
	}
	if res.AvgLatency <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestRingBFTCrossShardThroughput(t *testing.T) {
	res := smoke(t, ProtoRingBFT, 1.0)
	if res.Txns == 0 {
		t.Fatalf("no cross-shard transactions committed: %+v", res)
	}
}

func TestSharperCrossShardThroughput(t *testing.T) {
	res := smoke(t, ProtoSharper, 1.0)
	if res.Txns == 0 {
		t.Fatalf("sharper committed nothing: %+v", res)
	}
}

func TestAHLCrossShardThroughput(t *testing.T) {
	res := smoke(t, ProtoAHL, 1.0)
	if res.Txns == 0 {
		t.Fatalf("ahl committed nothing: %+v", res)
	}
}

func TestMixedWorkloadAllProtocols(t *testing.T) {
	for _, p := range []Protocol{ProtoRingBFT, ProtoSharper, ProtoAHL} {
		res := smoke(t, p, 0.3)
		if res.Txns == 0 {
			t.Errorf("%s: no transactions with 30%% cross-shard", p)
		}
	}
}

func TestReplicatedBaselines(t *testing.T) {
	for _, p := range []Protocol{ProtoPBFT, ProtoZyzzyva, ProtoSBFT, ProtoPoE, ProtoHotStuff, ProtoRCC} {
		res, err := Run(Config{
			Protocol:         p,
			ReplicasPerShard: 4,
			BatchSize:        10,
			Clients:          4,
			ClientWindow:     2,
			Warmup:           150 * time.Millisecond,
			Duration:         400 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Txns == 0 {
			t.Errorf("%s: committed nothing", p)
		}
	}
}
