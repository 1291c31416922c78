package chaos

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringbft/internal/harness"
)

// Replay flags: any matrix failure prints the exact command that re-runs
// just that scenario (see Scenario.ReproCmd).
var (
	flagSeed   = flag.Int64("chaos.seed", 0, "replay the scenario with this seed (TestReplaySeed)")
	flagProto  = flag.String("chaos.proto", "ringbft", "protocol for TestReplaySeed")
	flagFault  = flag.String("chaos.fault", "partition-shard", "fault class for TestReplaySeed")
	flagShards = flag.Int("chaos.shards", 0, "shard count for TestReplaySeed (0 = default)")
	flagDepth  = flag.Int("chaos.depth", 0, "pipeline depth for TestReplaySeed (0 = default)")
	flagUpdate = flag.Bool("chaos.update", false, "rewrite testdata/"+goldenFile+" and testdata/"+verifiesFile+" from this run of TestChaosMatrix")
)

// goldenFile pins the sha256 of every matrix row's RunResult.Fingerprint:
// a refactor that claims to change nothing observable must reproduce every
// committed block, state digest, client commit order and commit count.
const goldenFile = "matrix_fingerprints.golden"

// verifiesFile pins every matrix row's exact Ed25519 Sign and Verify totals
// (RunResult.Signs, RunResult.Verifies): a change to what gets signed or
// verified shows up as a diff of this table, row by row.
const verifiesFile = "matrix_verifies.golden"

// readGolden parses a golden table: one "<scenario name> <value>" per line.
func readGolden(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("golden %s: %v (regenerate with -chaos.update)", file, err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if ok {
			out[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func fingerprintSum(res *RunResult) string {
	sum := sha256.Sum256([]byte(res.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// TestChaosMatrix runs the full scenario matrix: every fault class against
// RingBFT plus the baseline subset, each seeded and fully deterministic.
// Every scenario must commit work, stay safe across all replicas, and
// recover liveness after its last heal.
func TestChaosMatrix(t *testing.T) {
	matrix := Matrix()
	if len(matrix) < 20 {
		t.Fatalf("matrix has %d scenarios, want >= 20", len(matrix))
	}
	var golden, verifies map[string]string
	if !*flagUpdate {
		golden, verifies = readGolden(t, goldenFile), readGolden(t, verifiesFile)
		if len(golden) != len(matrix) || len(verifies) != len(matrix) {
			t.Fatalf("golden tables have %d and %d rows, matrix has %d (regenerate with -chaos.update)",
				len(golden), len(verifies), len(matrix))
		}
	}
	sums := make(map[string]string, len(matrix))
	costs := make(map[string]string, len(matrix))
	if *flagUpdate {
		t.Cleanup(func() {
			if len(sums) != len(matrix) {
				t.Errorf("-chaos.update: %d of %d rows ran; golden tables left unchanged", len(sums), len(matrix))
				return
			}
			for file, vals := range map[string]map[string]string{goldenFile: sums, verifiesFile: costs} {
				var b strings.Builder
				for _, sc := range matrix {
					fmt.Fprintf(&b, "%s %s\n", sc.Name(), vals[sc.Name()])
				}
				if err := os.WriteFile(filepath.Join("testdata", file), []byte(b.String()), 0o644); err != nil {
					t.Error(err)
				}
			}
		})
	}
	for _, sc := range matrix {
		sc := sc
		// The whole matrix runs instrumented: phase tracing and metrics are
		// pure side effects, so every invariant must hold with them on, and
		// each scenario gains a per-phase stall attribution in its log line.
		sc.Instrument = true
		t.Run(sc.Name(), func(t *testing.T) {
			res, err := RunScenario(sc)
			if err != nil {
				t.Fatalf("%v\nreproduce with: %s", err, sc.ReproCmd())
			}
			if res.Failed() {
				t.Fatal(res.FailureReport())
			}
			if res.Committed == 0 {
				t.Fatalf("scenario %s committed nothing\nreproduce with: %s",
					sc.Name(), sc.ReproCmd())
			}
			if res.MetricsText == "" {
				t.Fatal("instrumented run produced no metrics snapshot")
			}
			// Instrumentation is a pure side effect (TestSeedDeterminism), so
			// this run's fingerprint is the bare one.
			sum := fingerprintSum(res)
			cost := fmt.Sprintf("sign=%d verify=%d", res.Signs, res.Verifies)
			if *flagUpdate {
				sums[sc.Name()], costs[sc.Name()] = sum, cost
			} else if want := golden[sc.Name()]; sum != want {
				t.Fatalf("fingerprint of %s is %s, golden %s\nreproduce with: %s",
					sc.Name(), sum, want, sc.ReproCmd())
			} else if want := verifies[sc.Name()]; cost != want {
				t.Fatalf("Ed25519 calls of %s: %s, golden %s\nreproduce with: %s",
					sc.Name(), cost, want, sc.ReproCmd())
			}
			t.Logf("committed=%d ticks=%d probeTicks=%d replicas=%d %s",
				res.Committed, res.Ticks, res.ProbeTicks, len(res.States),
				res.StallReport())
		})
	}
}

// TestReplaySeed replays a single scenario from its printed seed — the
// reproduction entry point every failure message references.
func TestReplaySeed(t *testing.T) {
	if *flagSeed == 0 {
		t.Skip("pass -chaos.seed=N (with -chaos.proto / -chaos.fault) to replay a scenario")
	}
	sc := Scenario{
		Protocol:      harness.Protocol(*flagProto),
		Fault:         Fault(*flagFault),
		Seed:          *flagSeed,
		Shards:        *flagShards,
		PipelineDepth: *flagDepth,
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("schedule: %v", res.Schedule.Events)
	t.Logf("fingerprint: %s", res.Fingerprint())
	if res.Failed() {
		t.Fatal(res.FailureReport())
	}
}

// TestSeedDeterminism: the same seed + schedule must yield identical
// committed block sequences, state digests, client commit orders, and
// counters across two runs — the property that makes `-chaos.seed=N`
// reproduce any failure exactly.
func TestSeedDeterminism(t *testing.T) {
	cases := []Scenario{
		{Protocol: harness.ProtoRingBFT, Fault: FaultPartitionShard, Seed: 11},
		{Protocol: harness.ProtoRingBFT, Fault: FaultLossStorm, Seed: 12},
		{Protocol: harness.ProtoRingBFT, Fault: FaultByzEquivocate, Seed: 13},
		{Protocol: harness.ProtoRingBFT, Fault: FaultWipeRejoin, Seed: 14},
		{Protocol: harness.ProtoAHL, Fault: FaultCrashRestart, Seed: 15},
		{Protocol: harness.ProtoSharper, Fault: FaultDelaySkew, Seed: 16},
		{Protocol: harness.ProtoRingBFT, Fault: FaultByzNewView, Seed: 17, Shards: 3},
		{Protocol: harness.ProtoRingBFT, Fault: FaultClientConflict, Seed: 18, Shards: 3},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			a, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
				t.Fatalf("two runs of %s diverged:\n  run1 %s\n  run2 %s",
					sc.Name(), fa, fb)
			}
			if a.Committed != b.Committed || a.LastCommitTick != b.LastCommitTick {
				t.Fatalf("counters diverged: committed %d vs %d, lastCommit %d vs %d",
					a.Committed, b.Committed, a.LastCommitTick, b.LastCommitTick)
			}
			// Third run with instrumentation on: tracing and metrics must be
			// pure side effects — the fingerprint stays byte-identical.
			ic := sc
			ic.Instrument = true
			i, err := RunScenario(ic)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fi := a.Fingerprint(), i.Fingerprint(); fa != fi {
				t.Fatalf("instrumented run of %s diverged from bare run:\n  bare         %s\n  instrumented %s",
					sc.Name(), fa, fi)
			}
			if i.MetricsText == "" {
				t.Fatal("instrumented run produced no metrics snapshot")
			}
		})
	}
}

// TestScheduleDeterminism: schedules are pure functions of the scenario.
func TestScheduleDeterminism(t *testing.T) {
	for _, f := range Faults() {
		sc := Scenario{Protocol: harness.ProtoRingBFT, Fault: f, Seed: 42}
		a, b := BuildSchedule(sc), BuildSchedule(sc)
		if len(a.Events) != len(b.Events) || a.LastHeal != b.LastHeal {
			t.Fatalf("fault %s: schedule not deterministic", f)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("fault %s event %d: %v vs %v", f, i, a.Events[i], b.Events[i])
			}
		}
		if f != FaultNone && a.LastHeal <= 0 {
			t.Fatalf("fault %s: schedule never heals", f)
		}
	}
}
