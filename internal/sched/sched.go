// Package sched derives the conflict schedule of a batch. Consensus fixes
// the order of a batch's transactions, but most of them do not touch the
// same keys: following the execute-order-validate scheduling idea of
// FabricSharp (SIGMOD 2020), BuildPlan derives a conflict graph from the
// transactions' declared read/write sets and layers it topologically, so
// that conflicting transactions (write-write, or read-write in either
// direction, on a key this shard owns) land in distinct layers that
// preserve batch order.
//
// No replica consumes a plan: every host executes a committed batch inline,
// in batch order, because executing layers on a worker pool measured slower
// than that loop (EXPERIMENTS.md, "Worker pools"). The planner stays only
// because benchmark/replay.go times BuildPlan as the
// sched.plan_us_per_batch row; the row and this package leave together in a
// later benchmark PR.
package sched

import "ringbft/internal/types"

// Plan is the conflict schedule of one batch at one shard: transaction
// indices partitioned into layers such that transactions within a layer are
// pairwise conflict-free and conflicting transactions appear in batch order
// across strictly increasing layers.
type Plan struct {
	layers [][]int
}

// BuildPlan computes the conflict schedule of txns at shard s in a system
// of z shards. Only keys owned by s participate in conflicts: remote reads
// resolve against the immutable carried Σ, never the local store. The pass
// is O(total keys), using an open-addressed scratch table (Go maps cost
// several times more here).
func BuildPlan(txns []types.Txn, s types.ShardID, z int) *Plan {
	occ := 0
	for i := range txns {
		occ += len(txns[i].Reads) + len(txns[i].Writes)
	}
	// Table at <= 50% occupancy so linear probing stays short. occ
	// overcounts distinct keys, giving extra headroom for free.
	shift := uint(60)
	size := 16
	for size < 2*occ {
		size <<= 1
		shift--
	}
	// slot records, per key, the highest layer that read it and the highest
	// layer that wrote it, encoded +1 so the zero value means "never".
	type slot struct {
		key         types.Key
		used        bool
		read, write int32
	}
	table := make([]slot, size)
	mask := size - 1
	probe := func(k types.Key) *slot {
		for j := int((uint64(k) * 0x9E3779B97F4A7C15) >> shift); ; j = (j + 1) & mask {
			sl := &table[j]
			if !sl.used {
				sl.used = true
				sl.key = k
				return sl
			}
			if sl.key == k {
				return sl
			}
		}
	}

	var layers [][]int
	for i := range txns {
		t := &txns[i]
		layer := int32(0)
		// Constraint pass: a read goes after the key's last writer; a write
		// goes after the key's last writer and last reader.
		for _, k := range t.Reads {
			if types.OwnerShard(k, z) != s {
				continue
			}
			if sl := probe(k); sl.write >= layer+1 {
				layer = sl.write
			}
		}
		for _, k := range t.Writes {
			if types.OwnerShard(k, z) != s {
				continue
			}
			sl := probe(k)
			if sl.write >= layer+1 {
				layer = sl.write
			}
			if sl.read >= layer+1 {
				layer = sl.read
			}
		}
		// Update pass: record this transaction as the keys' latest accessor.
		for _, k := range t.Reads {
			if types.OwnerShard(k, z) != s {
				continue
			}
			if sl := probe(k); sl.read < layer+1 {
				sl.read = layer + 1
			}
		}
		for _, k := range t.Writes {
			if types.OwnerShard(k, z) != s {
				continue
			}
			probe(k).write = layer + 1
		}
		for len(layers) <= int(layer) {
			layers = append(layers, nil)
		}
		layers[layer] = append(layers[layer], i)
	}
	return &Plan{layers: layers}
}

// Layers is the slice view of BuildPlan.
func Layers(txns []types.Txn, s types.ShardID, z int) [][]int {
	return BuildPlan(txns, s, z).layers
}
