// Command benchmark is the repository's one-command RingBFT benchmark: four
// named workloads, five end-to-end metrics from untraced runs, and a
// per-layer budget from traced runs (see README.md in this directory and
// BENCHMARK.json at the repository root).
//
//	go run ./benchmark                              # every workload, untraced then traced
//	go run ./benchmark -workload cross -seed 7      # one workload
//	go run ./benchmark -workload cross -trace 1 -trace-out spans
//	go run ./benchmark -compare a.txt b.txt         # paired comparison of saved outputs
//
// With -workload and -trace 0|1 the last line of standard output is the
// JSON object the benchmark contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// jsonMetric and jsonResult are the output format: one object per run.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	// Workload, Trace and Seed label the runs of a multi-run invocation;
	// the single contract run prints exactly the other four keys.
	Workload  string                `json:"workload,omitempty"`
	Trace     *int                  `json:"trace,omitempty"`
	Seed      *int64                `json:"seed,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: single, cross, tcp_mixed or saturate (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the arrival process, the generated transactions and the cluster's keys")
		seconds  = flag.Int("seconds", 20, "measured window of each run, in seconds")
		traceArg = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		traceOut = flag.String("trace-out", "", "directory to write the traced run's spans to")
		compare  = flag.Bool("compare", false, "compare two saved outputs: -compare a.txt b.txt")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.txt b.txt")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || *traceArg < -1 || *traceArg > 1 {
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	modes := []bool{false, true}
	if *traceArg >= 0 {
		modes = []bool{*traceArg == 1}
	}
	contract := len(run) == 1 && len(modes) == 1

	// Two cores is what the probes behind the README's numbers had; pinning
	// it keeps runs on larger hosts comparable.
	runtime.GOMAXPROCS(2)
	fmt.Printf("# ringbft benchmark: GOMAXPROCS=%d nproc=%d %s commit=%s seed=%d seconds=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), *seed, *seconds)

	o := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second, warm: 2 * time.Second,
		setups: 11, scale: 1, traceOut: *traceOut,
	}
	ok := true
	var lines [][]byte
	for _, w := range run {
		for _, traced := range modes {
			res, err := runWorkload(w, o, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			printResult(res, o)
			ok = ok && res.correct()
			jr := res.json()
			if !contract {
				t := 0
				if traced {
					t = 1
				}
				jr.Workload, jr.Trace, jr.Seed = w.name, &t, seed
			}
			line, err := json.Marshal(jr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			lines = append(lines, line)
		}
	}
	for _, l := range lines {
		fmt.Printf("%s\n", l)
	}
	if !ok {
		os.Exit(1)
	}
}

// json is the run's contract form: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (r *result) json() jsonResult {
	ms := r.e2e
	if r.traced {
		ms = r.layers
	}
	jr := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(ms))}
	for _, m := range ms {
		jr.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return jr
}

func printResult(r *result, o options) {
	mode, ms := "untraced", r.e2e
	if r.traced {
		mode, ms = "traced", r.layers
	}
	verdict := "correct"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Printf("== %s, %s, seed %d, %v window: %s, %d attempted, %d failed, %d latency samples\n",
		r.workload, mode, o.seed, o.window, verdict, r.attempted, r.failed, r.samples)
	for _, v := range r.violations {
		fmt.Printf("   violation: %s\n", v)
	}
	for _, n := range r.notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, m := range ms {
		fmt.Printf("   %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// commit is the revision stamped into the binary (go build in a git
// checkout), else what git says of the working directory (go run), else
// "unknown" (a checkout without git).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
