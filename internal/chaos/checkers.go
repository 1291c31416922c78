package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"ringbft/internal/harness"
	"ringbft/internal/types"
)

// Violation is one failed invariant. Detail is human-readable and names the
// replicas involved; the scenario runner prefixes it with the reproduction
// command.
type Violation struct {
	Check  string
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// CheckStates runs the cross-replica safety checkers over captured states:
//
//   - chain-verify: every replica's hash chain and Merkle roots verify;
//   - seq-digest-agreement: no two replicas of one shard committed
//     different batch digests at the same sequence number (covers forks and
//     successful equivocation);
//   - state-agreement: replicas of one shard that committed the same block
//     set reached the same store digest (divergent execution);
//   - executed-agreement: replicas of one shard agree on the execution
//     results of every batch both executed.
//
// Replicas that lag (crashed, dark, still transferring state) are naturally
// covered: their prefixes must agree where defined, and the convergence
// checker below demands enough fully-converged replicas.
func CheckStates(states []harness.ReplicaState) []Violation {
	var out []Violation
	byShard := groupByShard(states)
	for _, st := range states {
		if !st.ChainOK {
			out = append(out, Violation{"chain-verify",
				fmt.Sprintf("replica %v: broken hash chain or merkle root", st.ID)})
		}
	}
	for _, shard := range sortedShards(byShard) {
		group := byShard[shard]
		// seq -> first-seen digest and owner.
		type seen struct {
			digest types.Digest
			owner  types.NodeID
		}
		firstAt := make(map[types.SeqNum]seen)
		for _, st := range group {
			for _, b := range st.Blocks {
				if prev, ok := firstAt[b.Seq]; ok {
					if prev.digest != b.Digest {
						out = append(out, Violation{"seq-digest-agreement",
							fmt.Sprintf("shard %d seq %d: %v committed %x, %v committed %x",
								shard, b.Seq, prev.owner, prev.digest[:6], st.ID, b.Digest[:6])})
					}
				} else {
					firstAt[b.Seq] = seen{b.Digest, st.ID}
				}
			}
		}
		// Same committed block set => same state digest.
		keys := normalizedKeys(group)
		byBlocks := make(map[string][]harness.ReplicaState)
		for i, st := range group {
			byBlocks[keys[i]] = append(byBlocks[keys[i]], st)
		}
		blockKeys := make([]string, 0, len(byBlocks))
		for k := range byBlocks {
			blockKeys = append(blockKeys, k)
		}
		sort.Strings(blockKeys)
		for _, k := range blockKeys {
			same := byBlocks[k]
			for i := 1; i < len(same); i++ {
				if same[i].StateDigest != same[0].StateDigest {
					out = append(out, Violation{"state-agreement",
						fmt.Sprintf("shard %d: %v and %v committed the same %d blocks but diverge in state (%x vs %x)",
							shard, same[0].ID, same[i].ID, len(same[0].Blocks),
							same[0].StateDigest[:6], same[i].StateDigest[:6])})
				}
			}
		}
		// Executed-result agreement on common digests.
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				for _, d := range types.SortedDigestKeys(a.Executed) {
					ha := a.Executed[d]
					if hb, ok := b.Executed[d]; ok && ha != hb {
						out = append(out, Violation{"executed-agreement",
							fmt.Sprintf("shard %d batch %x: %v and %v executed to different results",
								shard, d[:6], a.ID, b.ID)})
					}
				}
			}
		}
	}
	return out
}

// Expectation names the nodes a schedule actually made faulty. Culprits is
// the full set evidence may accuse — a record naming anyone else is a false
// accusation of an honest node. Required is the subset whose misbehavior
// leaves verifiable evidence (equivocation, forged NewViews, conflicting
// client batches) and therefore must be accused by at least one replica;
// silent nodes are faulty but never provably so, and belong only to
// Culprits.
type Expectation struct {
	Culprits map[types.NodeID]bool
	Required []types.NodeID
}

// ExpectedCulprits derives the accountability expectation from the schedule
// the scenario actually ran: exactly the nodes its events corrupted, split
// into provable and unprovable misbehavior. Duplicate-storm clients are
// deliberately absent — duplicates are indistinguishable from honest
// retransmission, so accusing that client is a false accusation.
func ExpectedCulprits(sched Schedule) Expectation {
	exp := Expectation{Culprits: make(map[types.NodeID]bool)}
	required := make(map[types.NodeID]bool)
	for _, e := range sched.Events {
		switch e.Op {
		case OpByzSilent, OpByzGarbageCert, OpByzBadCommitSig:
			// Faulty but unprovable: silence looks like a slow network, and
			// no evidence kind records a Forward's garbage certificate or a
			// Commit's garbage signature.
			exp.Culprits[types.ReplicaNode(e.Shard, e.Index)] = true
		case OpByzEquivocate, OpByzNewView:
			id := types.ReplicaNode(e.Shard, e.Index)
			exp.Culprits[id] = true
			required[id] = true
		case OpClientConflict:
			id := types.ClientNode(advClientID)
			exp.Culprits[id] = true
			required[id] = true
		default:
			// Fault-injection ops (partitions, crashes, delays, duplicate
			// storms) corrupt nothing provable: no culprit expectation.
		}
	}
	exp.Required = types.SortedNodeKeys(required)
	return exp
}

// CheckAccountability asserts the Byzantine-accountability contract over the
// captured evidence logs: every record accuses an actually faulty node (zero
// honest accusations, the soundness half) and every provably faulty node is
// accused by at least one replica (no silent pardons, the completeness
// half).
func CheckAccountability(states []harness.ReplicaState, exp Expectation) []Violation {
	var out []Violation
	accused := make(map[types.NodeID]bool)
	for _, st := range states {
		for _, rec := range st.Evidence {
			accused[rec.Accused] = true
			if !exp.Culprits[rec.Accused] {
				out = append(out, Violation{"accountability",
					fmt.Sprintf("replica %v accuses honest node %v of %s at seq %d",
						st.ID, rec.Accused, rec.Kind, rec.Seq)})
			}
		}
	}
	for _, id := range exp.Required {
		if !accused[id] {
			out = append(out, Violation{"accountability",
				fmt.Sprintf("provably faulty node %v was never accused — no replica holds evidence", id)})
		}
	}
	return out
}

// CheckConvergence demands that at least minPerShard replicas of every shard
// fully agree: identical committed block sets and identical state digests.
// With minPerShard = n-f this asserts the cluster actually converged after
// healing, rather than passing the safety checkers vacuously via disjoint
// prefixes.
func CheckConvergence(states []harness.ReplicaState, minPerShard int) []Violation {
	var out []Violation
	byShard := groupByShard(states)
	for _, shard := range sortedShards(byShard) {
		group := byShard[shard]
		keys := normalizedKeys(group)
		counts := make(map[string]int)
		for i, st := range group {
			counts[keys[i]+string(st.StateDigest[:])]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if best < minPerShard {
			heights := make([]int, 0, len(group))
			for _, st := range group {
				heights = append(heights, st.Height)
			}
			out = append(out, Violation{"convergence",
				fmt.Sprintf("shard %d: largest agreeing replica group is %d < %d (heights %v)",
					shard, best, minPerShard, heights)})
		}
	}
	return out
}

// blockSetKey fingerprints a replica's committed block set above floor: the
// sorted (seq, digest) pairs with Seq > floor. Append order may legitimately
// differ across replicas (cross-shard blocks append on Execute arrival), so
// the set — not the retained order or the chaining hashes — is the
// agreement surface.
func blockSetKey(st harness.ReplicaState, floor types.SeqNum) []byte {
	recs := append([]harness.BlockRecord(nil), st.Blocks...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	h := sha256.New()
	var buf [8]byte
	for _, b := range recs {
		if b.Seq <= floor {
			continue
		}
		binary.BigEndian.PutUint64(buf[:], uint64(b.Seq))
		h.Write(buf[:])
		h.Write(b.Digest[:])
	}
	return h.Sum(nil)
}

// normalizedKeys fingerprints each replica's exact executed set — the thing
// that determines its state. The set is {1..ExecutedThrough} plus the
// retained blocks above the watermark (out-of-order executions), so the key
// is (watermark, sorted (seq, digest) pairs above it). Retained blocks at
// or below the watermark are redundant for the key — pruning drops them at
// replica-specific times, which must not split otherwise identical
// replicas. Digest agreement below the watermark is covered by the
// seq-digest checker on retained overlap and by checkpoint certification
// for pruned prefixes.
func normalizedKeys(group []harness.ReplicaState) []string {
	keys := make([]string, len(group))
	for i, st := range group {
		keys[i] = fmt.Sprintf("e%d|%x", st.ExecutedThrough,
			blockSetKey(st, st.ExecutedThrough))
	}
	return keys
}

func groupByShard(states []harness.ReplicaState) map[types.ShardID][]harness.ReplicaState {
	out := make(map[types.ShardID][]harness.ReplicaState)
	for _, st := range states {
		out[st.ID.Shard] = append(out[st.ID.Shard], st)
	}
	return out
}

func sortedShards(m map[types.ShardID][]harness.ReplicaState) []types.ShardID {
	shards := make([]types.ShardID, 0, len(m))
	for s := range m {
		shards = append(shards, s)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	return shards
}

// fingerprintStates folds captured states plus client commit orders into a
// short hex string; two runs of one scenario must produce identical
// fingerprints (the seed-determinism contract).
func fingerprintStates(states []harness.ReplicaState, perClient [][]types.Digest) string {
	h := sha256.New()
	for _, st := range states {
		fmt.Fprintf(h, "%v|%d|", st.ID, st.Height)
		h.Write(blockSetKey(st, 0))
		h.Write(st.StateDigest[:])
	}
	for _, seq := range perClient {
		for _, d := range seq {
			h.Write(d[:])
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
