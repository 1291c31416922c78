package chaos

import (
	"fmt"
	"sort"
	"strings"

	"ringbft/internal/crypto"
	"ringbft/internal/harness"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// RunResult is one deterministic scenario run.
type RunResult struct {
	Scenario Scenario
	Schedule Schedule

	States     []harness.ReplicaState
	Violations []Violation

	// Committed counts client-confirmed batches (probes included);
	// PerClient holds each client's completion order.
	Committed int
	PerClient [][]types.Digest

	// LastCommitTick is the tick of the final client confirmation;
	// ProbeTicks is how long the post-heal liveness probe took (-1 when it
	// never completed inside the budget).
	LastCommitTick int
	ProbeTicks     int
	Ticks          int

	// Instrumented runs only (Scenario.Instrument): Stalls attributes every
	// consensus span that never reached execution to the last phase it did
	// reach — the nemesis's footprint, phase by phase — and MetricsText is
	// the cluster-wide registry snapshot. Both are diagnostics, deliberately
	// excluded from Fingerprint.
	Stalls      map[trace.Phase]int
	MetricsText string

	// Signs and Verifies total the Ed25519 calls every node's key ring
	// served over the run, counted by crypto.CountingAuth. Deterministic,
	// but excluded from Fingerprint: they measure cost, not outcome.
	Signs, Verifies int64
}

// StallReport renders the per-phase stall attribution, worst phase first.
func (r *RunResult) StallReport() string {
	if len(r.Stalls) == 0 {
		return "stalls: none"
	}
	type row struct {
		ph trace.Phase
		n  int
	}
	rows := make([]row, 0, len(r.Stalls))
	for ph, n := range r.Stalls {
		rows = append(rows, row{ph, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].ph < rows[j].ph
	})
	parts := make([]string, len(rows))
	for i, rw := range rows {
		parts[i] = fmt.Sprintf("%s=%d", rw.ph, rw.n)
	}
	return "stalls: " + strings.Join(parts, " ")
}

// Fingerprint summarizes the run's observable outcome (committed block
// sets, state digests, per-client commit orders, counters); identical
// seeds must yield identical fingerprints.
func (r *RunResult) Fingerprint() string {
	return fmt.Sprintf("%s/committed=%d", fingerprintStates(r.States, r.PerClient), r.Committed)
}

// Failed reports whether any invariant was violated.
func (r *RunResult) Failed() bool { return len(r.Violations) > 0 }

// FailureReport renders the violations with the reproduction command.
func (r *RunResult) FailureReport() string {
	if !r.Failed() {
		return ""
	}
	s := fmt.Sprintf("scenario %s violated %d invariant(s):\n", r.Scenario.Name(), len(r.Violations))
	for _, v := range r.Violations {
		s += "  - " + v.String() + "\n"
	}
	s += fmt.Sprintf("reproduce with: %s (chaos seed %d)", r.Scenario.ReproCmd(), r.Scenario.Seed)
	return s
}

// RunScenario executes one scenario deterministically: build the cluster,
// drive workload + nemesis schedule over the horizon, probe liveness after
// the last heal, quiesce, capture, check.
func RunScenario(sc Scenario) (*RunResult, error) {
	sc = sc.Normalize()
	sched := BuildSchedule(sc)
	var keyRings []*crypto.CountingAuth
	c, err := newCluster(sc, func(_ types.NodeID, a crypto.Authenticator) crypto.Authenticator {
		ca := &crypto.CountingAuth{Authenticator: a}
		keyRings = append(keyRings, ca)
		return ca
	})
	if err != nil {
		return nil, err
	}
	res := &RunResult{Scenario: sc, Schedule: sched, ProbeTicks: -1}

	for c.tick < sched.Horizon {
		if err := c.step(sched.Events); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name(), err)
		}
	}

	probeTicks, probeOK, err := c.probe(sc.ProbeBudget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name(), err)
	}
	if probeOK {
		res.ProbeTicks = probeTicks
		// Quiesce: tick until trailing Executes, checkpoints, and state
		// transfers land and the shards converge (bounded budget — a real
		// convergence failure is then reported by the checkers below).
		quorum := convergenceQuorum(sc)
		for i := 0; i < 30; i++ {
			for j := 0; j < 8; j++ {
				if err := c.step(nil); err != nil {
					return nil, fmt.Errorf("%s: %w", sc.Name(), err)
				}
			}
			if len(c.queue) == 0 && len(CheckConvergence(c.Capture(), quorum)) == 0 {
				break
			}
		}
	}

	res.Ticks = c.tick
	res.LastCommitTick = c.lastCommitTick
	res.Committed = c.committed
	for _, cl := range c.clients {
		res.PerClient = append(res.PerClient, cl.committed)
	}
	res.States = c.Capture()
	for _, ca := range keyRings {
		res.Signs += ca.Signs.Load()
		res.Verifies += ca.Verifies.Load()
	}
	if events, snapshot := c.Observability(); snapshot != "" {
		res.Stalls = trace.Stalled(events)
		res.MetricsText = snapshot
	}

	res.Violations = CheckStates(res.States)
	if !probeOK {
		res.Violations = append(res.Violations, Violation{"liveness",
			fmt.Sprintf("probe batches did not all commit within %d ticks after the last heal (tick %d)",
				sc.ProbeBudget, sched.LastHeal)})
	}
	res.Violations = append(res.Violations,
		CheckConvergence(res.States, convergenceQuorum(sc))...)
	res.Violations = append(res.Violations,
		CheckAccountability(res.States, ExpectedCulprits(sched))...)
	return res, nil
}

// convergenceQuorum is how many fully agreeing replicas each shard must
// end with: n-f — every correct replica that stayed up, leaving room for
// the one the schedule crashed, wiped, or left dark.
func convergenceQuorum(sc Scenario) int {
	f := (sc.ReplicasPerShard - 1) / 3
	return sc.ReplicasPerShard - f
}

// probe injects fresh batches (one single-shard batch per shard plus one
// all-shard batch) from a dedicated probe client and ticks until they all
// confirm — the liveness invariant: a healed cluster commits new work
// within a bounded number of ticks.
func (c *Cluster) probe(budget int) (ticks int, ok bool, err error) {
	for _, cl := range c.clients {
		cl.paused = true
	}
	id := types.ClientID(c.sc.Clients + 1)
	pc := &dclient{id: id, reqs: harness.NewClient(c.topo, id), paused: true}
	c.clients = append(c.clients, pc)

	probes := c.probeBatches(id)
	for _, b := range probes {
		to, m := pc.reqs.Send(b, c.clock())
		c.enqueue(types.ClientNode(id), to, m)
	}

	start := c.tick
	for c.tick-start < budget {
		if len(pc.committed) >= len(probes) {
			return c.tick - start, true, nil
		}
		if err := c.step(nil); err != nil {
			return c.tick - start, false, err
		}
	}
	return c.tick - start, len(pc.committed) >= len(probes), nil
}

// probeBatches crafts deterministic probe transactions: key j*z+s belongs
// to shard s, so each batch touches exactly its target shards.
func (c *Cluster) probeBatches(cid types.ClientID) []*types.Batch {
	z := c.sc.Shards
	var out []*types.Batch
	mk := func(seq uint64, shards []types.ShardID) *types.Batch {
		var t types.Txn
		t.ID = types.TxnID{Client: cid, Seq: seq}
		t.Delta = 3
		for _, s := range shards {
			k := types.Key(uint64(s) + 11*uint64(z))
			t.Reads = append(t.Reads, k)
			t.Writes = append(t.Writes, k)
		}
		return &types.Batch{Txns: []types.Txn{t}, Involved: shards}
	}
	for s := 0; s < z; s++ {
		out = append(out, mk(uint64(s+1), []types.ShardID{types.ShardID(s)}))
	}
	if z > 1 {
		all := make([]types.ShardID, z)
		for s := range all {
			all[s] = types.ShardID(s)
		}
		out = append(out, mk(uint64(z+1), all))
	}
	return out
}

// Matrix generates the scenario matrix: every fault class against RingBFT
// (the system under test; its Forward-certificate justification, Σ merging,
// straggler commit replies, and checkpoint state transfer recover from all
// of them), a 3-shard RingBFT frontier, plus the classes the AHL and
// Sharper baselines' recovery machinery supports.
//
// The 3-shard rows exist because a two-shard ring has no middle: with three
// shards a batch can involve a shard that is neither initiator nor terminal,
// which is exactly where justification hand-off (the Forward certificate a
// middle shard must hold before its primary may propose), remote-view
// complaints against the previous shard, and the accountability checker earn
// their keep.
//
// Loss storms are now included for both baselines: their head-of-line
// renudges (AHL re-votes the oldest undecided cst, Sharper re-sends the
// oldest uncommitted global round's prepare) un-wedge the strictly-in-order
// execution pipelines that used to starve behind a single lost 2PC/global
// round. Still deliberately excluded (documented in EXPERIMENTS.md): an
// equivocating primary wedges both baselines (they carry no justification
// evidence — nothing like RingBFT's Forward certificate — to gate
// cross-shard proposals on), byz-newview, byz-garbage-cert,
// byz-bad-commit-sig and the client-fault classes need the justification
// gate, the ring's Forward certificates and client-conflict detection only
// RingBFT implements, and Sharper's global all-to-all rounds do not recover
// from asymmetric partitions or a silent primary on every seed. Seeds vary
// per protocol so the schedules decorrelate.
func Matrix() []Scenario {
	var out []Scenario
	for _, f := range Faults() {
		if f == FaultByzGarbageCert || f == FaultByzBadCommitSig {
			continue // one row each, on the 3-shard frontier below
		}
		out = append(out, Scenario{Protocol: harness.ProtoRingBFT, Fault: f, Seed: 1})
	}
	for _, f := range []Fault{
		FaultNone, FaultPartitionLane, FaultLossStorm, FaultCrashRestart,
		FaultByzEquivocate, FaultByzNewView, FaultClientDuplicate, FaultClientConflict,
		FaultPipelineViewChange,
	} {
		out = append(out, Scenario{Protocol: harness.ProtoRingBFT, Fault: f, Seed: 5, Shards: 3})
	}
	// Seed 4 is one where the garbage copy is the view-1 primary's first
	// candidate for a batch the view change re-proposes, so a Justification
	// that skipped the proof would ship the garbage and the restarted
	// replica would accuse that honest primary.
	out = append(out, Scenario{Protocol: harness.ProtoRingBFT, Fault: FaultByzGarbageCert, Seed: 4, Shards: 3})
	// Seed 24 is one where every candidate shard 1's view change can reach
	// holds the garbage signature, so its replicas complain until shard 0's
	// replicas answer with re-proven Forwards, and a new primary holds
	// its NewView until it can prove the certificate. A Prove that skipped
	// the check would leave the garbage in place, which
	// TestBadCommitSigFootprint catches.
	out = append(out, Scenario{Protocol: harness.ProtoRingBFT, Fault: FaultByzBadCommitSig, Seed: 24, Shards: 3})
	// Pipelined frontier: the deep-window rows run the whole workload with
	// a bounded in-flight window and adaptive batching armed, under faults
	// that deliberately hit mid-window (a dark primary, a crash-restart).
	out = append(out,
		Scenario{Protocol: harness.ProtoRingBFT, Fault: FaultCrashRestart, Seed: 6, PipelineDepth: 4},
		Scenario{Protocol: harness.ProtoRingBFT, Fault: FaultLossStorm, Seed: 7, PipelineDepth: 2},
	)
	for _, f := range []Fault{
		FaultNone, FaultPartitionShard, FaultPartitionAsym, FaultPartitionLane,
		FaultLossStorm, FaultDelaySkew, FaultCrashRestart, FaultWipeRejoin,
		FaultByzSilent,
	} {
		out = append(out, Scenario{Protocol: harness.ProtoAHL, Fault: f, Seed: 3})
	}
	for _, f := range []Fault{
		FaultNone, FaultPartitionShard, FaultPartitionLane, FaultLossStorm,
		FaultDelaySkew, FaultCrashRestart, FaultWipeRejoin,
	} {
		out = append(out, Scenario{Protocol: harness.ProtoSharper, Fault: f, Seed: 4})
	}
	return out
}
