package harness

import (
	"fmt"
	"strings"
	"time"
)

// Point is one x-position of a figure series.
type Point struct {
	X          float64
	Throughput float64 // txn/s
	LatencyMS  float64
	Result     Result
}

// Series is one protocol's line in a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduction of one of the paper's plots: the same series
// over the same (possibly scaled) x-axis, as printable rows.
type Figure struct {
	ID     string // "fig1", "fig8-I/II", ...
	Title  string
	XLabel string
	Series []Series
}

// Render formats the figure as an aligned text table: one row per x value,
// one throughput and latency column pair per series.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %18s", s.Label+" tput")
		fmt.Fprintf(&b, " %12s", "lat(ms)")
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-12.0f", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " | %18.0f %12.1f", s.Points[i].Throughput, s.Points[i].LatencyMS)
			} else {
				fmt.Fprintf(&b, " | %18s %12s", "-", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Profile scales an experiment suite to its runtime budget. Quick keeps
// go-test benchmarks in seconds; Full is the cmd/ringbft-bench default and
// runs minutes-long sweeps closer to the paper's configurations.
type Profile struct {
	Name             string
	Shards           int // maximum shard count used by sweeps
	ReplicasPerShard int
	Records          int   // active records per shard (paper: 600k total)
	ReplicaSweep     []int // x values for Fig 1 / Fig 8(III)
	ShardSweep       []int
	BatchSweep       []int
	ClientSweep      []int
	InvolvedSweep    []int
	BatchSize        int
	Clients          int
	ClientWindow     int
	Duration         time.Duration
	Warmup           time.Duration
	LatencyScale     float64
	BandwidthBps     float64
	ProcTime         time.Duration
	NoCrypto         bool
	Seed             int64
}

// Quick is the profile used by bench_test.go: small clusters, compressed
// WAN, sub-second measurement windows. Shapes, not absolute numbers.
var Quick = Profile{
	Name:             "quick",
	Shards:           5,
	ReplicasPerShard: 4,
	ReplicaSweep:     []int{4, 7, 10},
	ShardSweep:       []int{2, 3, 4, 5},
	BatchSweep:       []int{5, 20, 50, 100},
	ClientSweep:      []int{2, 4, 8, 12},
	InvolvedSweep:    []int{1, 2, 3, 4},
	BatchSize:        20,
	Records:          40000,
	Clients:          64,
	ClientWindow:     16,
	Duration:         900 * time.Millisecond,
	Warmup:           300 * time.Millisecond,
	LatencyScale:     0.02,
	BandwidthBps:     200e6,
	ProcTime:         50 * time.Microsecond,
	Seed:             1,
}

// Full is the cmd/ringbft-bench default: larger clusters and longer
// windows (minutes per figure). Still scaled below the paper's 420-node
// GCP deployment — the simulator runs on one machine.
var Full = Profile{
	Name:             "full",
	Shards:           15,
	ReplicasPerShard: 7,
	ReplicaSweep:     []int{4, 7, 10, 13},
	ShardSweep:       []int{3, 5, 7, 9, 11, 15},
	BatchSweep:       []int{10, 50, 100, 500, 1000},
	ClientSweep:      []int{4, 8, 16, 24, 32},
	InvolvedSweep:    []int{1, 3, 6, 9, 15},
	BatchSize:        100,
	Records:          40000,
	Clients:          48,
	ClientWindow:     8,
	Duration:         3 * time.Second,
	Warmup:           time.Second,
	LatencyScale:     0.05,
	BandwidthBps:     200e6,
	ProcTime:         20 * time.Microsecond,
	Seed:             1,
}

// BaseConfig derives a harness Config from the profile (exported so root
// benchmarks can build custom sweeps on a profile's settings).
func (p Profile) BaseConfig() Config {
	return Config{
		Shards:           p.Shards,
		ReplicasPerShard: p.ReplicasPerShard,
		BatchSize:        p.BatchSize,
		Records:          p.Records,
		StripeClients:    true,
		Clients:          p.Clients,
		ClientWindow:     p.ClientWindow,
		Duration:         p.Duration,
		Warmup:           p.Warmup,
		LatencyScale:     p.LatencyScale,
		BandwidthBps:     p.BandwidthBps,
		ProcTime:         p.ProcTime,
		NoCrypto:         p.NoCrypto,
		Seed:             p.Seed,
		// Saturation sweeps are fault-free: keep timers far above the
		// congested latencies so watchdogs do not misfire (the paper's
		// baselines reach tens of seconds of latency; Fig 9 sets its own).
		LocalTimeout:    3 * time.Second,
		RemoteTimeout:   6 * time.Second,
		TransmitTimeout: 12 * time.Second,
	}
}

func point(x float64, r Result) Point {
	return Point{
		X:          x,
		Throughput: r.Throughput,
		LatencyMS:  float64(r.AvgLatency) / float64(time.Millisecond),
		Result:     r,
	}
}

// sweep runs cfg once per x after mutate(x) and collects points.
func sweep(base Config, xs []int, mutate func(*Config, int)) ([]Point, error) {
	var pts []Point
	for _, x := range xs {
		cfg := base
		mutate(&cfg, x)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, point(float64(x), res))
	}
	return pts, nil
}

// Fig1 reproduces Figure 1: throughput of the fully-replicated
// single-primary protocols and of RingBFT (9 shards in the paper, scaled to
// the profile's shard count) at increasing replicas per group/shard, with
// 0% (RingBFT) and 15% (RingBFT_X) cross-shard transactions.
func Fig1(p Profile) (Figure, error) {
	fig := Figure{ID: "fig1", Title: "Scalability of BFT protocols", XLabel: "nodes/shard"}
	for _, proto := range []Protocol{ProtoPBFT, ProtoZyzzyva, ProtoSBFT, ProtoPoE, ProtoHotStuff, ProtoRCC} {
		pts, err := sweep(p.BaseConfig(), p.ReplicaSweep, func(c *Config, n int) {
			c.Protocol = proto
			c.ReplicasPerShard = n
			c.Shards = 1
		})
		if err != nil {
			return fig, fmt.Errorf("fig1 %s: %w", proto, err)
		}
		fig.Series = append(fig.Series, Series{Label: string(proto), Points: pts})
	}
	for _, v := range []struct {
		label string
		cross float64
	}{{"ringbft", 0}, {"ringbft-x", 0.15}} {
		pts, err := sweep(p.BaseConfig(), p.ReplicaSweep, func(c *Config, n int) {
			c.Protocol = ProtoRingBFT
			c.ReplicasPerShard = n
			c.Shards = p.Shards
			c.CrossShardPct = v.cross
			c.InvolvedShards = p.Shards
		})
		if err != nil {
			return fig, fmt.Errorf("fig1 %s: %w", v.label, err)
		}
		fig.Series = append(fig.Series, Series{Label: v.label, Points: pts})
	}
	return fig, nil
}

// shardedSweep runs the three sharding protocols over xs. The client
// population scales with the shard count so every configuration stays at
// saturation (the paper's 50k clients saturate every setting).
func shardedSweep(fig Figure, p Profile, xs []int, mutate func(*Config, int)) (Figure, error) {
	for _, proto := range []Protocol{ProtoRingBFT, ProtoSharper, ProtoAHL} {
		pts, err := sweep(p.BaseConfig(), xs, func(c *Config, x int) {
			c.Protocol = proto
			c.CrossShardPct = 0.3
			c.InvolvedShards = c.Shards
			mutate(c, x)
			if c.Shards > 3 {
				c.Clients = c.Clients * c.Shards / 3
			}
		})
		if err != nil {
			return fig, fmt.Errorf("%s %s: %w", fig.ID, proto, err)
		}
		fig.Series = append(fig.Series, Series{Label: string(proto), Points: pts})
	}
	return fig, nil
}

// Fig8Shards reproduces Fig 8 (I)/(II): scaling the number of shards with
// 30% cross-shard transactions touching every shard.
func Fig8Shards(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-I/II", Title: "Impact of number of shards", XLabel: "shards"}
	return shardedSweep(fig, p, p.ShardSweep, func(c *Config, z int) {
		c.Shards = z
		c.InvolvedShards = z
	})
}

// Fig8Replicas reproduces Fig 8 (III)/(IV): scaling replicas per shard.
func Fig8Replicas(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-III/IV", Title: "Impact of replicas per shard", XLabel: "replicas"}
	return shardedSweep(fig, p, p.ReplicaSweep, func(c *Config, n int) {
		c.ReplicasPerShard = n
	})
}

// Fig8CrossRate reproduces Fig 8 (V)/(VI): varying the percentage of
// cross-shard transactions.
func Fig8CrossRate(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-V/VI", Title: "Impact of cross-shard workload rate", XLabel: "cross %"}
	return shardedSweep(fig, p, []int{0, 5, 10, 15, 30, 60, 100}, func(c *Config, pct int) {
		c.CrossShardPct = float64(pct) / 100
	})
}

// Fig8BatchSize reproduces Fig 8 (VII)/(VIII): varying the batch size.
func Fig8BatchSize(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-VII/VIII", Title: "Impact of batch size", XLabel: "batch"}
	return shardedSweep(fig, p, p.BatchSweep, func(c *Config, b int) {
		c.BatchSize = b
	})
}

// Fig8Involved reproduces Fig 8 (IX)/(X): varying the number of involved
// shards per cross-shard transaction (consecutive shards, total fixed).
func Fig8Involved(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-IX/X", Title: "Impact of involved shards", XLabel: "involved"}
	return shardedSweep(fig, p, p.InvolvedSweep, func(c *Config, k int) {
		if k <= 1 {
			c.CrossShardPct = 0
			c.InvolvedShards = 2
			return
		}
		c.CrossShardPct = 1.0
		c.InvolvedShards = k
	})
}

// Fig8Clients reproduces Fig 8 (XI)/(XII): varying the number of clients
// (in-flight transactions).
func Fig8Clients(p Profile) (Figure, error) {
	fig := Figure{ID: "fig8-XI/XII", Title: "Impact of in-flight transactions", XLabel: "clients"}
	return shardedSweep(fig, p, p.ClientSweep, func(c *Config, k int) {
		c.Clients = k
	})
}

// Fig9 reproduces Figure 9: RingBFT throughput over time while the
// primaries of the first third of the shards fail mid-run; the series is
// committed transactions per 100ms bucket.
func Fig9(p Profile) (Result, error) {
	cfg := p.BaseConfig()
	cfg.Protocol = ProtoRingBFT
	cfg.CrossShardPct = 0.3
	cfg.InvolvedShards = cfg.Shards
	cfg.Duration = 6 * cfg.Duration
	cfg.Nemesis = CrashPrimaries((cfg.Shards+2)/3, cfg.Duration/4)
	// Run below saturation so commit latency sits well under the local
	// timeout: the local timer must distinguish a crashed primary from
	// ordinary queueing, exactly as in the paper's deployment (their
	// timeouts are calibrated to steady-state latency).
	cfg.Clients = p.Clients / 3
	cfg.ClientWindow = 2
	cfg.LocalTimeout = 400 * time.Millisecond
	cfg.RemoteTimeout = 700 * time.Millisecond
	cfg.TransmitTimeout = 1100 * time.Millisecond
	return Run(cfg)
}

// Fig9Recovery extends the Fig 9 fault scenario to replica recovery: a
// backup of shard 0 crashes a quarter into the run and restarts at the
// midpoint under three regimes — in-memory (restarts empty; only peer
// state transfer can catch it up), WAL-recovered (restarts from its
// segmented log + snapshots), and wipe-and-rejoin (durable, but the data
// dir is erased, forcing checkpoint-certified state transfer). Each series
// is committed txns per 100ms bucket; the terminal StateTransfers counter
// distinguishes the recovery paths.
func Fig9Recovery(p Profile) (Figure, error) {
	base := p.BaseConfig()
	base.Protocol = ProtoRingBFT
	base.CrossShardPct = 0.3
	base.InvolvedShards = min(2, base.Shards)
	base.Duration = 6 * p.Duration
	base.Clients = p.Clients / 3
	base.ClientWindow = 2
	base.LocalTimeout = 400 * time.Millisecond
	base.RemoteTimeout = 700 * time.Millisecond
	base.TransmitTimeout = 1100 * time.Millisecond
	base.CheckpointInterval = 8

	variants := []struct {
		label   string
		durable bool
		wipe    bool
	}{
		{"in-memory", false, false},
		{"wal-recovered", true, false},
		{"state-transfer", true, true},
	}
	fig := Figure{ID: "fig9-recovery", Title: "Replica crash-restart recovery", XLabel: "bucket(100ms)"}
	for _, v := range variants {
		cfg := base
		cfg.Durable = v.durable
		cfg.Nemesis = CrashRestart(base.Duration/4, base.Duration/2, v.wipe)
		res, err := Run(cfg)
		if err != nil {
			return fig, err
		}
		s := Series{Label: fmt.Sprintf("%s(st=%d)", v.label, res.StateTransfers)}
		for b, txns := range res.Timeline {
			s.Points = append(s.Points, Point{X: float64(b), Throughput: float64(txns) * 10, Result: res})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig10 reproduces Figure 10: RingBFT throughput and latency for complex
// cross-shard transactions with 0..64 remote-read dependencies.
func Fig10(p Profile) (Figure, error) {
	fig := Figure{ID: "fig10", Title: "Impact of remote reads (complex cst)", XLabel: "remote reads"}
	pts, err := sweep(p.BaseConfig(), []int{0, 8, 16, 32, 48, 64}, func(c *Config, k int) {
		c.Protocol = ProtoRingBFT
		c.CrossShardPct = 1.0
		c.InvolvedShards = c.Shards
		c.RemoteReads = k
	})
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, Series{Label: "ringbft", Points: pts})
	return fig, nil
}

// AblationLinearForward compares RingBFT's linear communication primitive
// with naive all-to-all shard-to-shard forwarding (DESIGN.md §5).
func AblationLinearForward(p Profile) (Figure, error) {
	fig := Figure{ID: "ablation-linear", Title: "Linear vs all-to-all Forward", XLabel: "shards"}
	for _, v := range []struct {
		label    string
		allToAll bool
	}{{"linear", false}, {"all-to-all", true}} {
		pts, err := sweep(p.BaseConfig(), p.ShardSweep, func(c *Config, z int) {
			c.Protocol = ProtoRingBFT
			c.Shards = z
			c.InvolvedShards = z
			c.CrossShardPct = 0.3
			c.AllToAllForward = v.allToAll
		})
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, Series{Label: v.label, Points: pts})
	}
	return fig, nil
}

// AblationCrypto isolates authentication cost (DESIGN.md §5): the paper's
// MAC+DS mix against signatures off entirely (NopAuth, the theoretical
// ceiling).
func AblationCrypto(p Profile) (Figure, error) {
	fig := Figure{ID: "ablation-crypto", Title: "Crypto mix: MAC+DS vs none", XLabel: "shards"}
	for _, v := range []struct {
		label string
		off   bool
	}{{"mac+ds", false}, {"nocrypto", true}} {
		pts, err := sweep(p.BaseConfig(), p.ShardSweep, func(c *Config, z int) {
			c.Protocol = ProtoRingBFT
			c.Shards = z
			c.InvolvedShards = z
			c.CrossShardPct = 0.3
			c.NoCrypto = v.off
		})
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, Series{Label: v.label, Points: pts})
	}
	return fig, nil
}
