package chaos

import (
	"context"
	"fmt"
	"time"

	"ringbft/internal/harness"
	"ringbft/internal/types"
)

// Wall-clock mode drives the SAME nemesis schedules through the real
// harness: goroutine event loops, the simulated WAN, real timers. It trades
// the deterministic engine's exact replayability for coverage of the
// concurrent implementation — the mode the nightly soak workflow runs.

// WallClockResult is one wall-clock chaos run.
type WallClockResult struct {
	Scenario   Scenario
	Result     harness.Result
	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *WallClockResult) Failed() bool { return len(r.Violations) > 0 }

// FailureReport renders the violations with the scenario identity.
func (r *WallClockResult) FailureReport() string {
	if !r.Failed() {
		return ""
	}
	s := fmt.Sprintf("wall-clock scenario %s violated %d invariant(s):\n", r.Scenario.Name(), len(r.Violations))
	for _, v := range r.Violations {
		s += "  - " + v.String() + "\n"
	}
	s += fmt.Sprintf("seeded schedule: chaos seed %d (deterministic replay: %s)",
		r.Scenario.Seed, r.Scenario.ReproCmd())
	return s
}

// nemesisFromSchedule translates the deterministic schedule into a
// harness.Nemesis: event ticks map proportionally onto the measurement
// window, and ops drive the harness Controller.
//
//ringbft:ignore wallclock the wall-clock bridge is the one sanctioned exit from seeded time: the schedule is fully built (seed-deterministically) before this runs, and only its pacing maps onto real time here
func nemesisFromSchedule(sc Scenario, sched Schedule, window time.Duration) harness.Nemesis {
	return func(ctx context.Context, ctl *harness.Controller) {
		start := time.Now()
		for _, e := range sched.Events {
			at := time.Duration(float64(e.At) / float64(sched.Horizon) * float64(window))
			select {
			case <-time.After(time.Until(start.Add(at))):
			case <-ctx.Done():
				return
			}
			applyWallClock(ctl, e)
		}
	}
}

// applyWallClock executes one schedule event against the harness controller.
func applyWallClock(ctl *harness.Controller, e Event) {
	switch e.Op {
	case OpPartitionShard, OpPartitionAsym, OpPartitionLane:
		ctl.SetPartition(partition(e))
	case OpLoss:
		p := e.P
		ctl.SetLossFilter(func(from, to types.NodeID) float64 {
			if from.Kind == types.KindClient || to.Kind == types.KindClient {
				return 0
			}
			return p
		})
	case OpDelay:
		d := time.Duration(e.Ticks) * 10 * time.Millisecond
		ctl.SetDelayFilter(func(from, to types.NodeID) time.Duration {
			if from.Kind == types.KindReplica && to.Kind == types.KindReplica &&
				from.Shard != to.Shard {
				return d
			}
			return 0
		})
	case OpCrash:
		ctl.Crash(types.ReplicaNode(e.Shard, e.Index))
	case OpRestart:
		ctl.Restart(types.ReplicaNode(e.Shard, e.Index), e.Wipe)
	case OpByzSilent:
		ctl.SetByzantine(types.ReplicaNode(e.Shard, e.Index), harness.ByzSilent)
	case OpByzEquivocate:
		ctl.SetByzantine(types.ReplicaNode(e.Shard, e.Index), harness.ByzEquivocate)
	case OpByzNewView:
		ctl.SetByzantine(types.ReplicaNode(e.Shard, e.Index), harness.ByzNewView)
	case OpByzGarbageCert:
		ctl.SetByzantine(types.ReplicaNode(e.Shard, e.Index), harness.ByzGarbageCert)
	case OpByzBadCommitSig:
		ctl.SetByzantine(types.ReplicaNode(e.Shard, e.Index), harness.ByzBadCommitSig)
	case OpClientDuplicate, OpClientConflict:
		// Client faults are deterministic-engine behaviours: the wall-clock
		// harness drives its own closed-loop clients, which these ops cannot
		// reach. Documented no-ops.
	case OpHeal:
		ctl.HealAll()
	}
}

// RunWallClock executes one scenario's schedule against the real harness
// for the given measurement window and runs the safety checkers over the
// captured replica states plus a timeline liveness check. Convergence is
// not demanded: event loops stop mid-flight, so replicas legitimately halt
// at slightly different points.
func RunWallClock(sc Scenario, window time.Duration) (*WallClockResult, error) {
	sc = sc.Normalize()
	sched := BuildSchedule(sc)
	cfg := harness.Config{
		Protocol:           sc.Protocol,
		Shards:             sc.Shards,
		ReplicasPerShard:   sc.ReplicasPerShard,
		BatchSize:          sc.BatchSize,
		PipelineDepth:      sc.PipelineDepth,
		CrossShardPct:      sc.CrossShardPct,
		Records:            sc.Records,
		Clients:            sc.Clients,
		ClientWindow:       1,
		Duration:           window,
		Warmup:             window / 8,
		LatencyScale:       0.02,
		Seed:               sc.Seed,
		CheckpointInterval: 8,
		Durable:            true,
		Nemesis:            nemesisFromSchedule(sc, sched, window),
		CollectState:       true,
		Instrument:         sc.Instrument,
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &WallClockResult{Scenario: sc, Result: res}
	out.Violations = CheckStates(res.Replicas)
	// Liveness: commits must continue after the last heal (plus a grace
	// bucket for the recovery machinery to engage).
	if sc.Fault != FaultNone && res.NemesisLastHeal > 0 {
		healBucket := int(res.NemesisLastHeal/(100*time.Millisecond)) + 1
		var after int64
		for i, v := range res.Timeline {
			if i > healBucket {
				after += v
			}
		}
		if healBucket < len(res.Timeline)-2 && after == 0 {
			out.Violations = append(out.Violations, Violation{"liveness",
				fmt.Sprintf("no commits after the last heal (bucket %d of %d)",
					healBucket, len(res.Timeline))})
		}
	}
	return out, nil
}
