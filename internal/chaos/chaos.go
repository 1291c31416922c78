// Package chaos is the repo's nemesis subsystem: seeded, reproducible fault
// schedules driven against ringbft/ahl/sharper clusters, with cross-replica
// invariant checking afterwards.
//
// The paper's claims are resilience claims — linear ring communication that
// stays safe and live under cross-shard conflicts, primary failures, and the
// A1/A2 attacks — so instead of sampling fault interleavings with a handful
// of hand-written scenario tests, this package enumerates them: a Scenario
// is (protocol, fault class, seed); BuildSchedule expands it into a timed
// sequence of fault/heal events; the deterministic logical-time engine
// (cluster.go) applies them while a seeded workload runs; and the checkers
// (checkers.go) assert safety across every replica (no two replicas of a
// shard commit different digests at one sequence, committed prefixes are
// consistent, converged replicas agree on state and execution results) plus
// liveness (freshly injected probe batches commit within a bounded number of
// ticks after the last heal).
//
// Everything is derived from Scenario.Seed: the workload, the fault times,
// the victims, per-message loss coins and delivery jitter. Re-running a
// scenario with the same seed replays it exactly, so any CI failure is
// reproducible from the seed its failure message prints (see ReproCmd).
//
// The same Schedule also drives the wall-clock harness (harness.go in this
// package, via harness.Config.Nemesis) for long soak runs over the simulated
// WAN with real goroutines and timers — `cmd/ringbft-chaos` is the entry
// point CI's nightly chaos workflow uses.
package chaos

import (
	"fmt"
	"math/rand"

	"ringbft/internal/harness"
	"ringbft/internal/types"
)

// Fault names one nemesis class of the scenario matrix.
type Fault string

const (
	// FaultNone runs the workload fault-free (the matrix's control row).
	FaultNone Fault = "none"
	// FaultPartitionShard severs every link between shard 0 and the rest
	// of the system, both directions (the C1 no-communication attack).
	FaultPartitionShard Fault = "partition-shard"
	// FaultPartitionAsym blocks shard 0 -> shard 1 only: messages flow
	// one way (the C2 partial-communication attack).
	FaultPartitionAsym Fault = "partition-asym"
	// FaultPartitionLane severs the cross-shard links of one or two
	// replica indexes — RingBFT's linear communication lanes — forcing
	// recovery through the remaining same-index relays.
	FaultPartitionLane Fault = "partition-lane"
	// FaultLossStorm drops a large fraction of replica-to-replica traffic
	// for a window (attack A2's unreliable network).
	FaultLossStorm Fault = "loss-storm"
	// FaultDelaySkew adds multi-tick delay to every cross-shard link for
	// a window, skewing rotations without dropping anything.
	FaultDelaySkew Fault = "delay-skew"
	// FaultCrashRestart crashes a replica mid-run and restarts it from
	// its durable state (WAL + snapshots) a while later.
	FaultCrashRestart Fault = "crash-restart"
	// FaultWipeRejoin crashes a replica, erases its data directory, and
	// restarts it empty — it must rejoin via checkpoint-certified peer
	// state transfer.
	FaultWipeRejoin Fault = "wipe-rejoin"
	// FaultByzSilent makes a primary drop all outbound traffic while
	// still receiving — a dark primary only timers can unmask.
	FaultByzSilent Fault = "byz-silent"
	// FaultByzEquivocate makes a primary send conflicting, correctly
	// MAC'd PrePrepares to different backups at the same (view, seq).
	FaultByzEquivocate Fault = "byz-equivocate"
	// FaultByzNewView darkens the view-0 primary of a non-initiator shard
	// to force a view change, then makes the successor primary append a
	// fabricated, justification-free cross-shard re-proposal to the NewView
	// it must send. Honest replicas must reject the NewView wholesale at
	// the justification gate, record evidence naming the forger, and
	// recover liveness by escalating past it. RingBFT only (the baselines
	// carry no justification certificates for the gate to check).
	FaultByzNewView Fault = "byz-newview"
	// FaultClientDuplicate makes one client fan every fresh request out to
	// all replicas of the initiating shard instead of just the primary.
	// This is legal traffic — honest retransmission does exactly the same —
	// so the protocol must dedupe it and no replica may record evidence
	// against the client.
	FaultClientDuplicate Fault = "client-duplicate"
	// FaultClientConflict makes one client send two different batches
	// carrying the same transaction IDs. Replicas must stay safe (the two
	// digests commit as distinct batches, consistently everywhere) and
	// record client-conflict evidence naming exactly that client.
	FaultClientConflict Fault = "client-conflict"
	// FaultPipelineViewChange silences a primary that is running a deep
	// proposal pipeline (Scenario.PipelineDepth, default 4 for this fault):
	// the view change fires while a full window of PRE-PREPAREd-but-
	// uncommitted proposals is in flight, and the successor must re-propose
	// the whole set (sorted-digest order) with none lost and none executed
	// twice. RingBFT only — the pipeline window lives in its propose path.
	FaultPipelineViewChange Fault = "pipeline-viewchange"
	// FaultByzGarbageCert makes one replica of shard 0 forward a zeroed
	// commit certificate on every Forward, and crashes shard 1's primary
	// while that runs, so shard 1 view-changes with cross-shard batches
	// prepared. Copies are counted on their ring tags, so the garbage is
	// held as a certificate candidate at shard 1; honest replicas must
	// prove the certificate before it reaches a view-change or NewView
	// justification, or receivers short of their own Forward quorum reject
	// the NewView and accuse its honest primary. RingBFT only.
	FaultByzGarbageCert Fault = "byz-garbage-cert"
	// FaultByzBadCommitSig makes one replica of shard 0 sign garbage on its
	// cross-shard Commits while their MACs stay valid, and crashes shard 1's
	// primary while that runs. Shard 0's replicas count the garbage votes and
	// can forward certificates holding them, so shard 1's view change finds
	// no candidate that verifies: its replicas must complain upstream until
	// a re-proven Forward arrives, and shard 0's replicas must prove their
	// certificates before retransmitting them, or the restarted primary
	// accuses an honest one. RingBFT only.
	FaultByzBadCommitSig Fault = "byz-bad-commit-sig"
)

// Faults lists every fault class, matrix order.
func Faults() []Fault {
	return []Fault{
		FaultNone, FaultPartitionShard, FaultPartitionAsym, FaultPartitionLane,
		FaultLossStorm, FaultDelaySkew, FaultCrashRestart, FaultWipeRejoin,
		FaultByzSilent, FaultByzEquivocate, FaultByzNewView,
		FaultClientDuplicate, FaultClientConflict, FaultPipelineViewChange,
		FaultByzGarbageCert, FaultByzBadCommitSig,
	}
}

// Scenario is one cell of the chaos matrix. The zero values of the sizing
// fields are filled by Normalize.
type Scenario struct {
	Protocol harness.Protocol
	Fault    Fault
	Seed     int64

	Shards           int
	ReplicasPerShard int
	Clients          int
	BatchSize        int
	CrossShardPct    float64
	Records          int
	// PipelineDepth is the primary's in-flight proposal bound
	// (types.Config.PipelineDepth): 0 = the types.DefaultConfig depth. Part
	// of the scenario identity (Name, fingerprint), since it changes which
	// proposals exist when a fault lands.
	PipelineDepth int
	// Horizon is the number of logical ticks the workload+nemesis phase
	// runs before the liveness probe; ProbeBudget bounds how many further
	// ticks the probe batches may take to commit.
	Horizon     int
	ProbeBudget int

	// Instrument attaches a metrics registry and per-node lifecycle tracers
	// to the cluster. Pure side effect: Name, BuildSchedule, and the run's
	// fingerprint are all independent of it — TestSeedDeterminism asserts an
	// instrumented run is byte-identical to an uninstrumented one.
	Instrument bool
}

// Normalize fills defaults, returning the effective scenario.
func (s Scenario) Normalize() Scenario {
	if s.Protocol == "" {
		s.Protocol = harness.ProtoRingBFT
	}
	if s.Fault == "" {
		s.Fault = FaultNone
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 {
		s.Shards = 2
	}
	if s.ReplicasPerShard <= 0 {
		s.ReplicasPerShard = 4
	}
	if s.Clients <= 0 {
		s.Clients = 4
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 4
	}
	if s.CrossShardPct == 0 {
		s.CrossShardPct = 0.3
	}
	if s.Records <= 0 {
		s.Records = 512
	}
	if s.Fault == FaultPipelineViewChange && s.PipelineDepth <= 0 {
		s.PipelineDepth = 4
	}
	if s.Horizon <= 0 {
		s.Horizon = 260
	}
	if s.ProbeBudget <= 0 {
		s.ProbeBudget = 400
	}
	return s
}

// Name is the scenario's stable identifier: protocol/fault/seed, plus the
// shard count when it deviates from the default topology.
func (s Scenario) Name() string {
	n := s.Normalize()
	name := fmt.Sprintf("%s/%s/seed=%d", n.Protocol, n.Fault, n.Seed)
	if n.Shards != 2 {
		name += fmt.Sprintf("/shards=%d", n.Shards)
	}
	if n.PipelineDepth > 0 {
		name += fmt.Sprintf("/depth=%d", n.PipelineDepth)
	}
	return name
}

// ReproCmd prints the command that replays exactly this scenario; every
// checker failure message embeds it.
func (s Scenario) ReproCmd() string {
	n := s.Normalize()
	return fmt.Sprintf("go test ./internal/chaos/ -run TestReplaySeed -chaos.proto=%s -chaos.fault=%s -chaos.seed=%d -chaos.shards=%d -chaos.depth=%d -v",
		n.Protocol, n.Fault, n.Seed, n.Shards, n.PipelineDepth)
}

// Op is one declarative nemesis operation; the deterministic engine and the
// wall-clock harness adapter both interpret the same ops.
type Op int

const (
	OpPartitionShard  Op = iota // isolate Shard, both directions
	OpPartitionAsym             // block Shard -> Shard2 only
	OpPartitionLane             // sever cross-shard links of replica index Index (and Index2 if >= 0)
	OpLoss                      // drop replica traffic with probability P
	OpDelay                     // add Ticks delay to cross-shard links
	OpCrash                     // crash replica (Shard, Index)
	OpRestart                   // restart replica (Shard, Index); Wipe erases its data dir first
	OpByzSilent                 // replica (Shard, Index) drops all outbound traffic
	OpByzEquivocate             // replica (Shard, Index) equivocates PrePrepares
	OpByzNewView                // replica (Shard, Index) appends an unjustified re-proposal to its NewViews
	OpClientDuplicate           // the adversarial client fans every fresh request out to all replicas
	OpClientConflict            // the adversarial client pairs every fresh request with a conflicting same-TxnID variant
	OpHeal                      // clear partitions, loss, delay, Byzantine modes, and client faults
	OpByzGarbageCert            // replica (Shard, Index) zeroes the certificate signatures of its Forwards
	OpByzBadCommitSig           // replica (Shard, Index) zeroes the signatures of its cross-shard Commits
)

func (o Op) String() string {
	switch o {
	case OpPartitionShard:
		return "partition-shard"
	case OpPartitionAsym:
		return "partition-asym"
	case OpPartitionLane:
		return "partition-lane"
	case OpLoss:
		return "loss"
	case OpDelay:
		return "delay"
	case OpCrash:
		return "crash"
	case OpRestart:
		return "restart"
	case OpByzSilent:
		return "byz-silent"
	case OpByzEquivocate:
		return "byz-equivocate"
	case OpByzNewView:
		return "byz-newview"
	case OpClientDuplicate:
		return "client-duplicate"
	case OpClientConflict:
		return "client-conflict"
	case OpHeal:
		return "heal"
	case OpByzGarbageCert:
		return "byz-garbage-cert"
	case OpByzBadCommitSig:
		return "byz-bad-commit-sig"
	}
	return "?"
}

// Event is one timed nemesis operation.
type Event struct {
	At     int // logical tick (deterministic engine) / fraction of the fault window (wall-clock)
	Op     Op
	Shard  types.ShardID
	Shard2 types.ShardID
	Index  int
	Index2 int // second lane for OpPartitionLane; -1 = none
	P      float64
	Ticks  int
	Wipe   bool
}

func (e Event) String() string {
	return fmt.Sprintf("t=%d %s(s=%d/%d i=%d/%d p=%.2f ticks=%d wipe=%v)",
		e.At, e.Op, e.Shard, e.Shard2, e.Index, e.Index2, e.P, e.Ticks, e.Wipe)
}

// Schedule is a seeded nemesis schedule: timed events, all of them healed by
// LastHeal, inside a horizon of Horizon ticks.
type Schedule struct {
	Events   []Event
	LastHeal int
	Horizon  int
}

// BuildSchedule expands a scenario into its deterministic event sequence.
// All randomness (fault times, victims, probabilities) is drawn from the
// scenario seed, so the same scenario always yields the same schedule.
func BuildSchedule(sc Scenario) Schedule {
	sc = sc.Normalize()
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed5eed))
	h := sc.Horizon
	// The fault window: start after the workload has warmed up, heal with
	// at least 35% of the horizon left so liveness has room to recover.
	start := h/8 + rng.Intn(h/8)
	heal := h/2 + rng.Intn(h/8)

	var events []Event
	add := func(e Event) { events = append(events, e) }

	victimShard := types.ShardID(rng.Intn(sc.Shards))
	otherShard := types.ShardID((int(victimShard) + 1) % sc.Shards)

	switch sc.Fault {
	case FaultNone:
		return Schedule{Horizon: h}
	case FaultPartitionShard:
		add(Event{At: start, Op: OpPartitionShard, Shard: victimShard})
		add(Event{At: heal, Op: OpHeal})
	case FaultPartitionAsym:
		add(Event{At: start, Op: OpPartitionAsym, Shard: victimShard, Shard2: otherShard})
		add(Event{At: heal, Op: OpHeal})
	case FaultPartitionLane:
		lane := rng.Intn(sc.ReplicasPerShard)
		lane2 := -1
		if rng.Intn(2) == 1 { // sometimes sever two of the n lanes
			lane2 = (lane + 1 + rng.Intn(sc.ReplicasPerShard-1)) % sc.ReplicasPerShard
		}
		add(Event{At: start, Op: OpPartitionLane, Index: lane, Index2: lane2})
		add(Event{At: heal, Op: OpHeal})
	case FaultLossStorm:
		add(Event{At: start, Op: OpLoss, P: 0.25 + 0.25*rng.Float64()})
		add(Event{At: heal, Op: OpHeal})
	case FaultDelaySkew:
		add(Event{At: start, Op: OpDelay, Ticks: 2 + rng.Intn(4)})
		add(Event{At: heal, Op: OpHeal})
	case FaultCrashRestart:
		// Crash the view-0 primary half the time, a backup otherwise.
		idx := 0
		if rng.Intn(2) == 1 {
			idx = 1 + rng.Intn(sc.ReplicasPerShard-1)
		}
		add(Event{At: start, Op: OpCrash, Shard: victimShard, Index: idx})
		add(Event{At: heal, Op: OpRestart, Shard: victimShard, Index: idx})
	case FaultWipeRejoin:
		idx := 1 + rng.Intn(sc.ReplicasPerShard-1) // wipe a backup
		add(Event{At: start, Op: OpCrash, Shard: victimShard, Index: idx})
		add(Event{At: heal, Op: OpRestart, Shard: victimShard, Index: idx, Wipe: true})
	case FaultByzSilent:
		add(Event{At: start, Op: OpByzSilent, Shard: victimShard, Index: 0})
		add(Event{At: heal, Op: OpHeal})
	case FaultByzEquivocate:
		add(Event{At: start, Op: OpByzEquivocate, Shard: victimShard, Index: 0})
		add(Event{At: heal, Op: OpHeal})
	case FaultByzNewView:
		// The forger must sit on a non-initiator shard: shard 0 initiates
		// every batch a forger could fabricate, so its own Justify gate
		// would pass (see harness.ForgeUnjustifiedProof). Darken the view-0
		// primary to force the view change, then let its successor (the
		// view-1 primary, index 1) forge the NewView it now owes.
		byzShard := types.ShardID(0)
		if sc.Shards > 1 {
			byzShard = types.ShardID(1 + rng.Intn(sc.Shards-1))
		}
		add(Event{At: start, Op: OpByzSilent, Shard: byzShard, Index: 0})
		add(Event{At: start, Op: OpByzNewView, Shard: byzShard, Index: 1})
		add(Event{At: heal, Op: OpHeal})
	case FaultClientDuplicate:
		add(Event{At: start, Op: OpClientDuplicate})
		add(Event{At: heal, Op: OpHeal})
	case FaultClientConflict:
		add(Event{At: start, Op: OpClientConflict})
		add(Event{At: heal, Op: OpHeal})
	case FaultPipelineViewChange:
		// Same unmasking as byz-silent, but the scenario runs a deep
		// pipeline (Normalize sets PipelineDepth): the primary goes dark
		// with a window of uncommitted proposals in flight, so the view
		// change must carry the whole set — the successor re-proposes every
		// awaited batch in sorted-digest order, and the checkers assert
		// nothing was lost, duplicated, or executed twice.
		add(Event{At: start, Op: OpByzSilent, Shard: victimShard, Index: 0})
		add(Event{At: heal, Op: OpHeal})
	case FaultByzGarbageCert:
		// Shard 0 precedes shard 1 in the ring of every batch involving
		// both, so shard 1 counts the garbage copies and holds them as
		// candidates. The sender is on lane 1, whose recipient is shard 1's
		// view-1 primary, so the garbage is often that primary's first
		// candidate. Shard 1's view-0 primary crashes once the copies are
		// in flight and restarts 16 ticks later, before the view change the
		// crash forces has completed: it has lost its csts, and with them
		// its own Forward quorum, so it accepts the NewView only on the
		// certificate the NewView carries.
		crash := (start + heal) / 2
		add(Event{At: start, Op: OpByzGarbageCert, Shard: 0, Index: 1})
		add(Event{At: crash, Op: OpCrash, Shard: 1, Index: 0})
		add(Event{At: crash + 16, Op: OpRestart, Shard: 1, Index: 0})
		add(Event{At: heal, Op: OpHeal})
	case FaultByzBadCommitSig:
		// The same crash as byz-garbage-cert, so shard 1's view change
		// consumes shard 0's certificates; here shard 0's honest replicas
		// build the garbage into them themselves. The signer is on lane 0,
		// whose recipient is the primary that crashes: while it is down
		// nobody relays the signer's own Forward, the one copy whose
		// certificate cannot hold its garbage, so shard 1 can be left with
		// garbage-holding candidates only.
		crash := (start + heal) / 2
		add(Event{At: start, Op: OpByzBadCommitSig, Shard: 0, Index: 0})
		add(Event{At: crash, Op: OpCrash, Shard: 1, Index: 0})
		add(Event{At: crash + 16, Op: OpRestart, Shard: 1, Index: 0})
		add(Event{At: heal, Op: OpHeal})
	default:
		panic(fmt.Sprintf("chaos: unknown fault %q", sc.Fault))
	}
	return Schedule{Events: events, LastHeal: heal, Horizon: h}
}
