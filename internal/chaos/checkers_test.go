package chaos

import (
	"strings"
	"testing"

	"ringbft/internal/evidence"
	"ringbft/internal/harness"
	"ringbft/internal/types"
)

// Synthetic-state tests: every checker must actually detect the violation
// class it exists for — a checker that cannot fail is not a checker.

func replica(shard types.ShardID, idx int, blocks []harness.BlockRecord,
	state byte, execThrough types.SeqNum) harness.ReplicaState {
	var sd types.Digest
	sd[0] = state
	return harness.ReplicaState{
		ID:              types.ReplicaNode(shard, idx),
		Blocks:          blocks,
		Height:          len(blocks),
		ChainOK:         true,
		StateDigest:     sd,
		ExecutedThrough: execThrough,
	}
}

func rec(seq types.SeqNum, d byte) harness.BlockRecord {
	var dig types.Digest
	dig[0] = d
	return harness.BlockRecord{Seq: seq, Digest: dig}
}

func hasViolation(t *testing.T, vs []Violation, check string) {
	t.Helper()
	for _, v := range vs {
		if v.Check == check {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", check, vs)
}

func TestCheckerDetectsFork(t *testing.T) {
	a := replica(0, 0, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb)}, 1, 2)
	b := replica(0, 1, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xcc)}, 1, 2)
	hasViolation(t, CheckStates([]harness.ReplicaState{a, b}), "seq-digest-agreement")
}

func TestCheckerDetectsStateDivergence(t *testing.T) {
	blocks := []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb)}
	a := replica(0, 0, blocks, 1, 2)
	b := replica(0, 1, blocks, 2, 2) // same executed set, different state
	hasViolation(t, CheckStates([]harness.ReplicaState{a, b}), "state-agreement")
}

func TestCheckerDetectsExecutedDivergence(t *testing.T) {
	blocks := []harness.BlockRecord{rec(1, 0xaa)}
	a := replica(0, 0, blocks, 1, 1)
	b := replica(0, 1, blocks, 1, 1)
	var d types.Digest
	d[0] = 0xaa
	a.Executed = map[types.Digest]uint64{d: 7}
	b.Executed = map[types.Digest]uint64{d: 8}
	hasViolation(t, CheckStates([]harness.ReplicaState{a, b}), "executed-agreement")
}

func TestCheckerDetectsBrokenChain(t *testing.T) {
	a := replica(0, 0, []harness.BlockRecord{rec(1, 0xaa)}, 1, 1)
	a.ChainOK = false
	hasViolation(t, CheckStates([]harness.ReplicaState{a}), "chain-verify")
}

func TestCheckerToleratesLaggingReplica(t *testing.T) {
	// A behind replica (shorter executed prefix) is not a safety violation.
	a := replica(0, 0, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb)}, 1, 2)
	b := replica(0, 1, []harness.BlockRecord{rec(1, 0xaa)}, 2, 1)
	if vs := CheckStates([]harness.ReplicaState{a, b}); len(vs) != 0 {
		t.Fatalf("lagging replica flagged as violation: %v", vs)
	}
}

func TestCheckerToleratesPruningSkew(t *testing.T) {
	// Same executed set, one replica pruned earlier: must group together.
	a := replica(0, 0, []harness.BlockRecord{rec(3, 0xcc), rec(4, 0xdd)}, 1, 4)
	b := replica(0, 1, []harness.BlockRecord{rec(2, 0xbb), rec(3, 0xcc), rec(4, 0xdd)}, 1, 4)
	if vs := CheckStates([]harness.ReplicaState{a, b}); len(vs) != 0 {
		t.Fatalf("pruning skew flagged as violation: %v", vs)
	}
	if vs := CheckConvergence([]harness.ReplicaState{a, b}, 2); len(vs) != 0 {
		t.Fatalf("pruning skew broke convergence: %v", vs)
	}
}

func TestCheckerDetectsMissedConvergence(t *testing.T) {
	a := replica(0, 0, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb)}, 1, 2)
	b := replica(0, 1, []harness.BlockRecord{rec(1, 0xaa)}, 2, 1)
	vs := CheckConvergence([]harness.ReplicaState{a, b}, 2)
	hasViolation(t, vs, "convergence")
	if !strings.Contains(vs[0].Detail, "shard 0") {
		t.Fatalf("violation does not name the shard: %v", vs[0])
	}
}

func TestCheckerDetectsStraggler(t *testing.T) {
	// Three replicas executed through the shard's stable checkpoint 16; the
	// fourth sits at 8. Convergence (n-f = 3) passes; caught-up names it,
	// unless the schedule excused it.
	var group []harness.ReplicaState
	for i := range 4 {
		st := replica(0, i, nil, 1, 16)
		st.Stable = 16
		group = append(group, st)
	}
	group[3].ExecutedThrough, group[3].Stable = 8, 0
	if vs := CheckConvergence(group, 3); len(vs) != 0 {
		t.Fatalf("convergence flags the straggler: %v", vs)
	}
	vs := CheckCaughtUp(group, nil)
	hasViolation(t, vs, "caught-up")
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, group[3].ID.String()) {
		t.Fatalf("want one violation naming %v, got %v", group[3].ID, vs)
	}
	if vs := CheckCaughtUp(group, map[types.NodeID]bool{group[3].ID: true}); len(vs) != 0 {
		t.Fatalf("an excused replica is judged: %v", vs)
	}
	// Executing past the stable checkpoint is in step.
	group[3].ExecutedThrough = 20
	if vs := CheckCaughtUp(group, nil); len(vs) != 0 {
		t.Fatalf("a replica ahead of the stable checkpoint is flagged: %v", vs)
	}
}

func TestCheckerDetectsFalseAccusation(t *testing.T) {
	// Evidence naming a node the schedule never corrupted is itself a bug:
	// the soundness half of the accountability contract.
	a := replica(0, 0, nil, 1, 0)
	a.Evidence = []evidence.Record{{
		Kind: evidence.KindEquivocation, Accused: types.ReplicaNode(1, 0), Shard: 1,
	}}
	vs := CheckAccountability([]harness.ReplicaState{a},
		Expectation{Culprits: map[types.NodeID]bool{}})
	hasViolation(t, vs, "accountability")
	if !strings.Contains(vs[0].Detail, "honest") {
		t.Fatalf("violation does not flag the accusation as false: %v", vs[0])
	}
}

func TestCheckerDetectsMissedAccusation(t *testing.T) {
	// A provably faulty node no replica accused: the completeness half.
	culprit := types.ReplicaNode(1, 0)
	a := replica(0, 0, nil, 1, 0) // holds no evidence
	exp := Expectation{
		Culprits: map[types.NodeID]bool{culprit: true},
		Required: []types.NodeID{culprit},
	}
	hasViolation(t, CheckAccountability([]harness.ReplicaState{a}, exp), "accountability")
}

func TestCheckerAcceptsExactAccountability(t *testing.T) {
	// One replica accusing exactly the required culprit satisfies both
	// halves; an unprovably faulty culprit (silent) needs no accuser.
	culprit := types.ReplicaNode(1, 0)
	silent := types.ReplicaNode(0, 2)
	a := replica(0, 0, nil, 1, 0)
	a.Evidence = []evidence.Record{{
		Kind: evidence.KindUnjustifiedNewView, Accused: culprit, Shard: 1,
	}}
	b := replica(0, 1, nil, 1, 0)
	exp := Expectation{
		Culprits: map[types.NodeID]bool{culprit: true, silent: true},
		Required: []types.NodeID{culprit},
	}
	if vs := CheckAccountability([]harness.ReplicaState{a, b}, exp); len(vs) != 0 {
		t.Fatalf("exact accountability flagged as violation: %v", vs)
	}
}

func TestExpectedCulpritsFromSchedule(t *testing.T) {
	sched := Schedule{Events: []Event{
		{At: 10, Op: OpByzSilent, Shard: 1, Index: 0},
		{At: 10, Op: OpByzNewView, Shard: 1, Index: 1},
		{At: 12, Op: OpClientConflict},
		{At: 20, Op: OpClientDuplicate}, // legal traffic: never a culprit
		{At: 90, Op: OpHeal},
	}}
	exp := ExpectedCulprits(sched)
	if !exp.Culprits[types.ReplicaNode(1, 0)] || !exp.Culprits[types.ReplicaNode(1, 1)] ||
		!exp.Culprits[types.ClientNode(advClientID)] {
		t.Fatalf("culprits incomplete: %v", exp.Culprits)
	}
	if len(exp.Culprits) != 3 {
		t.Fatalf("unexpected extra culprits: %v", exp.Culprits)
	}
	if len(exp.Required) != 2 { // the silent node is faulty but unprovable
		t.Fatalf("want 2 required accusations (forger + client), got %v", exp.Required)
	}
	for _, id := range exp.Required {
		if id == types.ReplicaNode(1, 0) {
			t.Fatalf("silent node must not require accusation: %v", exp.Required)
		}
	}
}

func TestCheckerOutOfOrderSuffixComparable(t *testing.T) {
	// Blocks above the watermark executed out of order still compare as a
	// set: both replicas executed {1,2,4} with 3 pending.
	a := replica(0, 0, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb), rec(4, 0xdd)}, 1, 2)
	b := replica(0, 1, []harness.BlockRecord{rec(1, 0xaa), rec(4, 0xdd), rec(2, 0xbb)}, 1, 2)
	if vs := CheckStates([]harness.ReplicaState{a, b}); len(vs) != 0 {
		t.Fatalf("out-of-order suffix flagged: %v", vs)
	}
	// But a replica that additionally executed 3 must NOT group with them.
	c := replica(0, 2, []harness.BlockRecord{rec(1, 0xaa), rec(2, 0xbb), rec(3, 0xcc), rec(4, 0xdd)}, 3, 4)
	if vs := CheckStates([]harness.ReplicaState{a, b, c}); len(vs) != 0 {
		t.Fatalf("different executed sets falsely compared: %v", vs)
	}
}
