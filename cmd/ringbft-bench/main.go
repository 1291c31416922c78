// Command ringbft-bench regenerates the tables and figures of the RingBFT
// paper's evaluation (Section 8) on the simulated WAN. Each figure prints
// the same series the paper plots — throughput and average latency per
// x-value per protocol — so paper-vs-measured shapes can be compared
// directly (see EXPERIMENTS.md).
//
// Usage:
//
//	ringbft-bench -figure all                # every figure, quick profile
//	ringbft-bench -figure fig8-shards -profile full
//	ringbft-bench -figure custom -protocol ringbft -shards 9 -replicas 7 \
//	    -cross 0.3 -batch 100 -duration 5s   # one-off run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ringbft/internal/harness"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure to regenerate: all, fig1, fig8-shards, fig8-replicas, fig8-cross, fig8-batch, fig8-involved, fig8-clients, fig9, fig9-recovery, fig10, ablation-linear, ablation-crypto, custom")
		profile = flag.String("profile", "quick", "experiment scale: quick or full")

		// custom run flags
		protocol = flag.String("protocol", "ringbft", "custom: protocol (ringbft, ahl, sharper, pbft, zyzzyva, sbft, poe, hotstuff, rcc)")
		shards   = flag.Int("shards", 3, "custom: number of shards")
		replicas = flag.Int("replicas", 4, "custom: replicas per shard")
		cross    = flag.Float64("cross", 0.3, "custom: cross-shard fraction [0,1]")
		involved = flag.Int("involved", 0, "custom: involved shards per cst (0 = all)")
		batch    = flag.Int("batch", 50, "custom: batch size")
		clients  = flag.Int("clients", 8, "custom: concurrent clients")
		duration = flag.Duration("duration", time.Second, "custom: measurement window")
		latScale = flag.Float64("latscale", 0.05, "custom: WAN latency compression factor")
		nocrypto = flag.Bool("nocrypto", false, "custom: disable MACs/signatures")
	)
	flag.Parse()

	p := harness.Quick
	if *profile == "full" {
		p = harness.Full
	}

	type figGen struct {
		name string
		run  func(harness.Profile) (harness.Figure, error)
	}
	gens := []figGen{
		{"fig1", harness.Fig1},
		{"fig8-shards", harness.Fig8Shards},
		{"fig8-replicas", harness.Fig8Replicas},
		{"fig8-cross", harness.Fig8CrossRate},
		{"fig8-batch", harness.Fig8BatchSize},
		{"fig8-involved", harness.Fig8Involved},
		{"fig8-clients", harness.Fig8Clients},
		{"fig9-recovery", harness.Fig9Recovery},
		{"fig10", harness.Fig10},
		{"ablation-linear", harness.AblationLinearForward},
		{"ablation-crypto", harness.AblationCrypto},
	}

	switch *figure {
	case "custom":
		cfg := harness.Config{
			Protocol:         harness.Protocol(*protocol),
			Shards:           *shards,
			ReplicasPerShard: *replicas,
			CrossShardPct:    *cross,
			InvolvedShards:   *involved,
			BatchSize:        *batch,
			Clients:          *clients,
			Duration:         *duration,
			LatencyScale:     *latScale,
			NoCrypto:         *nocrypto,
		}
		res, err := harness.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		fmt.Printf("messages: %d (dropped %d), bytes: %d (cross-region %d), view changes: %d, retransmits: %d\n",
			res.MsgsSent, res.MsgsDropped, res.BytesSent, res.BytesCross, res.ViewChanges, res.Retransmits)
		return

	case "fig9":
		runFig9(p)
		return

	case "all":
		for _, g := range gens {
			start := time.Now()
			fig, err := g.run(p)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", g.name, err))
			}
			fmt.Println(fig.Render())
			fmt.Printf("(%s took %.1fs)\n\n", g.name, time.Since(start).Seconds())
		}
		runFig9(p)
		return

	default:
		for _, g := range gens {
			if g.name == *figure {
				fig, err := g.run(p)
				if err != nil {
					fatal(err)
				}
				fmt.Println(fig.Render())
				return
			}
		}
		fatal(fmt.Errorf("unknown figure %q", *figure))
	}
}

func runFig9(p harness.Profile) {
	res, err := harness.Fig9(p)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== fig9: Throughput under primary failure (RingBFT) ==")
	fmt.Printf("primaries of the first third of %d shards crash a quarter into the run; view change recovers\n",
		res.Config.Shards)
	fmt.Println("t(ms)       txns/100ms")
	var peak int64 = 1
	for _, v := range res.Timeline {
		if v > peak {
			peak = v
		}
	}
	for i, v := range res.Timeline {
		bar := strings.Repeat("#", int(v*50/peak))
		fmt.Printf("%-12d%-8d%s\n", i*100, v, bar)
	}
	fmt.Printf("view changes: %d\n\n", res.ViewChanges)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ringbft-bench:", err)
	os.Exit(1)
}
