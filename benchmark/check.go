package main

import (
	"fmt"
	"math"

	"ringbft/internal/types"
)

// check is the end-of-run correctness check of a stopped cluster: what the
// replicas committed must be consistent, whatever the timing was. A view
// change is not a violation — on a shared host a stall longer than the
// 400 ms local timer can trigger one without any fault — it is returned as
// a note, and shows in the latency metrics and pbft.view_changes.
func check(c *cluster, st *clientStats) (violations, notes []string) {
	fail := func(format string, a ...any) { violations = append(violations, fmt.Sprintf(format, a...)) }

	for s := 0; s < shards; s++ {
		chains := make([]map[types.SeqNum]types.Digest, replicasPer)
		bySeq := make(map[types.SeqNum]types.Digest)
		// All replicas must hold the same blocks in (low, high]: above the
		// highest pruning boundary (durable replicas prune at stable
		// checkpoints) and up to the lowest contiguous executed prefix
		// (replicas may be mid-execution when stopped, and append
		// cross-shard blocks slightly out of order near the head). A
		// sequence number a view change filled with a no-op has no block
		// on any of them.
		low, high := types.SeqNum(0), types.SeqNum(math.MaxUint64)
		for i := 0; i < replicasPer; i++ {
			r := c.replicas[s*replicasPer+i]
			if err := r.Chain().Verify(); err != nil {
				fail("shard %d replica %d: chain: %v", s, i, err)
			}
			stats := r.Stats()
			if stats.ExecErrors != 0 || stats.DurErrors != 0 {
				fail("shard %d replica %d: %d execution errors, %d durability errors", s, i, stats.ExecErrors, stats.DurErrors)
			}
			if stats.ViewChanges != 0 {
				notes = append(notes, fmt.Sprintf("shard %d replica %d went through %d view changes", s, i, stats.ViewChanges))
			}
			// blocks[0] is genesis or the header-only pruning boundary.
			blocks := r.Chain().Blocks()
			low = max(low, blocks[0].Seq)
			high = min(high, r.ExecutedThrough())
			chains[i] = make(map[types.SeqNum]types.Digest, len(blocks))
			for _, b := range blocks[1:] {
				chains[i][b.Seq] = b.Digest
				// Safety proper: one digest per sequence number, shard-wide.
				if d, ok := bySeq[b.Seq]; ok && d != b.Digest {
					fail("shard %d: replicas disagree on seq %d", s, b.Seq)
				}
				bySeq[b.Seq] = b.Digest
			}
		}
		for i, ch := range chains[1:] {
			for seq := low + 1; seq <= high; seq++ {
				_, first := chains[0][seq]
				if _, ok := ch[seq]; ok != first {
					fail("shard %d: all replicas executed through seq %d, but of replicas 0 and %d only one has a block for seq %d", s, high, i+1, seq)
					break
				}
			}
		}
	}
	if st.disagreed > 0 {
		fail("%d requests were answered by every replica of their shard without f+1 equal result hashes", st.disagreed)
	}
	return violations, notes
}
