package sched

import (
	"math/rand"
	"testing"

	"ringbft/internal/types"
)

// randTxns generates n transactions with read/write sets drawn from a
// keyspace of span keys owned by shard s in a system of z shards, plus
// remote keys when z > 1. Small spans force heavy overlap.
func randTxns(rng *rand.Rand, n, span, z int, s types.ShardID) []types.Txn {
	localKey := func() types.Key {
		return types.Key(uint64(s) + uint64(rng.Intn(span))*uint64(z))
	}
	txns := make([]types.Txn, n)
	for i := range txns {
		t := &txns[i]
		t.ID = types.TxnID{Client: 1, Seq: uint64(i + 1)}
		t.Delta = types.Value(rng.Intn(100))
		for r := rng.Intn(4); r >= 0; r-- {
			t.Reads = append(t.Reads, localKey())
		}
		for w := rng.Intn(3); w >= 0; w-- {
			t.Writes = append(t.Writes, localKey())
		}
		if z > 1 && rng.Intn(2) == 0 {
			// A remote read owned by the next shard over.
			remote := types.Key(uint64((s+1)%types.ShardID(z)) + uint64(rng.Intn(span))*uint64(z))
			t.Reads = append(t.Reads, remote)
		}
	}
	return txns
}

// conflict reports whether a and b conflict on keys owned by shard s.
func conflict(a, b *types.Txn, s types.ShardID, z int) bool {
	writes := make(map[types.Key]struct{})
	reads := make(map[types.Key]struct{})
	for _, k := range a.Writes {
		if types.OwnerShard(k, z) == s {
			writes[k] = struct{}{}
		}
	}
	for _, k := range a.Reads {
		if types.OwnerShard(k, z) == s {
			reads[k] = struct{}{}
		}
	}
	for _, k := range b.Writes {
		if types.OwnerShard(k, z) != s {
			continue
		}
		if _, ok := writes[k]; ok {
			return true
		}
		if _, ok := reads[k]; ok {
			return true
		}
	}
	for _, k := range b.Reads {
		if types.OwnerShard(k, z) != s {
			continue
		}
		if _, ok := writes[k]; ok {
			return true
		}
	}
	return false
}

// TestLayersInvariants checks the three structural guarantees of Layers on
// randomized batches: every index appears exactly once, transactions within
// a layer are pairwise conflict-free, and conflicting transactions keep
// batch order across strictly increasing layers.
func TestLayersInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const z = 3
	const s = types.ShardID(1)
	for trial := 0; trial < 200; trial++ {
		txns := randTxns(rng, 1+rng.Intn(40), 1+rng.Intn(12), z, s)
		layers := Layers(txns, s, z)

		layerOf := make(map[int]int)
		for li, layer := range layers {
			for _, i := range layer {
				if _, dup := layerOf[i]; dup {
					t.Fatalf("trial %d: txn %d scheduled twice", trial, i)
				}
				layerOf[i] = li
			}
		}
		if len(layerOf) != len(txns) {
			t.Fatalf("trial %d: scheduled %d of %d txns", trial, len(layerOf), len(txns))
		}
		for i := range txns {
			for j := i + 1; j < len(txns); j++ {
				if !conflict(&txns[i], &txns[j], s, z) {
					continue
				}
				if layerOf[i] >= layerOf[j] {
					t.Fatalf("trial %d: conflicting txns %d (layer %d) and %d (layer %d) not ordered",
						trial, i, layerOf[i], j, layerOf[j])
				}
			}
		}
		for li, layer := range layers {
			for a := 0; a < len(layer); a++ {
				for b := a + 1; b < len(layer); b++ {
					i, j := layer[a], layer[b]
					if conflict(&txns[i], &txns[j], s, z) {
						t.Fatalf("trial %d: layer %d holds conflicting txns %d and %d", trial, li, i, j)
					}
				}
			}
		}
	}
}
