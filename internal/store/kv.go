// Package store implements each shard's data substrate: a YCSB-style
// key-value table with deterministic read-modify-write execution, and the
// per-key lock table RingBFT uses to lock read-write sets in transactional
// sequence order (Fig 5 lines 17-28).
//
// The table is kept in key order, the order checkpoints certify it and
// snapshots persist it in, so a dump is a copy rather than a sort.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ringbft/internal/types"
)

// freshMerge is the number of inserted keys a table holds outside key
// order, on top of its ordered size, before folding them in: building a
// table by inserts costs one merge per doubling, never a shift per key.
const freshMerge = 256

// KV is one shard's partition of the YCSB table: ascending keys with their
// values beside them. The owning replica executes batches from its event
// loop, one transaction at a time, each under the write lock; goroutines
// outside that loop (inspection through Replica.Store, benchmarks) read
// under the read lock.
//
// A write to a key the table does not hold lands in fresh; fresh is merged
// into keys/vals once it holds more than freshMerge plus len(keys) records,
// and whenever a reader needs every record in key order (Pairs, Digest).
type KV struct {
	mu    sync.RWMutex
	keys  []types.Key               // strictly ascending
	vals  []types.Value             // vals[i] is the value of keys[i]
	fresh map[types.Key]types.Value // inserted since the last merge; disjoint from keys
}

// NewKV returns an empty table.
func NewKV() *KV { return &KV{} }

// find returns the position of k in keys. A preloaded partition is the
// arithmetic progression s + i·z, so the first probe is k's place in it,
// accepted only if that slot holds k; any other table falls back to binary
// search.
func (kv *KV) find(k types.Key) (int, bool) {
	keys := kv.keys
	if len(keys) > 1 && k >= keys[0] {
		if j := (k - keys[0]) / (keys[1] - keys[0]); j < types.Key(len(keys)) && keys[j] == k {
			return int(j), true
		}
	}
	return slices.BinarySearch(keys, k)
}

// get returns the value of k (zero if absent). Callers hold kv.mu.
func (kv *KV) get(k types.Key) types.Value {
	if i, ok := kv.find(k); ok {
		return kv.vals[i]
	}
	return kv.fresh[k]
}

// insert writes v at k, which keys does not hold. Callers hold kv.mu for
// writing.
func (kv *KV) insert(k types.Key, v types.Value) {
	if kv.fresh == nil {
		kv.fresh = make(map[types.Key]types.Value)
	}
	kv.fresh[k] = v
	if len(kv.fresh) > freshMerge+len(kv.keys) {
		kv.merge()
	}
}

// merge folds fresh into keys/vals: one sort of the inserted keys and one
// pass over the table. Callers hold kv.mu for writing.
func (kv *KV) merge() {
	if len(kv.fresh) == 0 {
		return
	}
	ks := make([]types.Key, 0, len(kv.fresh))
	for k := range kv.fresh {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	vs := make([]types.Value, len(ks))
	for i, k := range ks {
		vs[i] = kv.fresh[k]
	}
	kv.keys, kv.vals = union(kv.keys, kv.vals, ks, vs)
	kv.fresh = nil
}

// union merges two ascending tables into a new one; where both hold a key,
// b's value wins.
func union(ak []types.Key, av []types.Value, bk []types.Key, bv []types.Value) ([]types.Key, []types.Value) {
	keys := make([]types.Key, 0, len(ak)+len(bk))
	vals := make([]types.Value, 0, len(ak)+len(bk))
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		switch {
		case ak[i] < bk[j]:
			keys, vals = append(keys, ak[i]), append(vals, av[i])
			i++
		case ak[i] > bk[j]:
			keys, vals = append(keys, bk[j]), append(vals, bv[j])
			j++
		default:
			keys, vals = append(keys, bk[j]), append(vals, bv[j])
			i++
			j++
		}
	}
	keys = append(append(keys, ak[i:]...), bk[j:]...)
	vals = append(append(vals, av[i:]...), bv[j:]...)
	return keys, vals
}

// rlockOrdered read-locks the table with every record in keys/vals,
// merging pending inserts first.
func (kv *KV) rlockOrdered() {
	kv.mu.RLock()
	for len(kv.fresh) > 0 {
		kv.mu.RUnlock()
		kv.mu.Lock()
		kv.merge()
		kv.mu.Unlock()
		kv.mu.RLock()
	}
}

// Preload installs n records owned by shard s in a system of z ≥ 1 shards
// with initial values equal to their key, mirroring the paper's identical
// YCSB table initialization at every replica (Section 8, "Benchmark").
//
// Set-up cost is part of every cluster start (a replica holds up to
// hundreds of thousands of records): the partition s + i·z is already in
// key order, so an empty table is two slice fills, and a table that holds
// data is merged with it once, the partition's values winning.
func (kv *KV) Preload(s types.ShardID, z int, n int) {
	if n <= 0 {
		return
	}
	keys := make([]types.Key, n)
	vals := make([]types.Value, n)
	for i := range keys {
		k := types.Key(uint64(s) + uint64(i)*uint64(z))
		keys[i], vals[i] = k, types.Value(k)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.merge()
	if len(kv.keys) > 0 {
		keys, vals = union(kv.keys, kv.vals, keys, vals)
	}
	kv.keys, kv.vals = keys, vals
}

// Get returns the value of k (zero if absent).
func (kv *KV) Get(k types.Key) types.Value {
	kv.mu.RLock()
	v := kv.get(k)
	kv.mu.RUnlock()
	return v
}

// Set writes v at k.
func (kv *KV) Set(k types.Key, v types.Value) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if i, ok := kv.find(k); ok {
		kv.vals[i] = v
		return
	}
	kv.insert(k, v)
}

// Len returns the number of records.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.keys) + len(kv.fresh)
}

// ExecuteTxn applies the shard-local fragment of t at shard s deterministically:
//
//	combined = Δ + Σ(values of all reads, local and remote)
//	for every local write key k: data[k] += combined
//
// remote maps read keys owned by other shards to the values carried in Σ
// (Execute messages / accumulated Forward read sets). The returned result is
// the combined operand, identical at every shard, so clients can match f+1
// identical responses. Missing remote reads return an error — execution must
// never guess at dependency values (determinism requirement, Section 3).
//
// The whole transaction holds the write lock.
func (kv *KV) ExecuteTxn(t *types.Txn, s types.ShardID, z int, remote map[types.Key]types.Value) (types.Value, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.get(k)
		} else {
			v, ok := remote[k]
			if !ok {
				return 0, fmt.Errorf("store: missing remote read %d for txn %v at shard %d", k, t.ID, s)
			}
			combined += v
		}
	}
	kv.applyWrites(t, s, z, combined)
	return combined, nil
}

// ApplyTxnWrites applies only the write half of t's read-modify-write with
// a precomputed combined operand. WAL replay and peer state transfer use it:
// the combined value was recorded at original execution time, so recovery
// re-applies writes deterministically without the cross-shard read values
// (Σ) that produced it.
func (kv *KV) ApplyTxnWrites(t *types.Txn, s types.ShardID, z int, combined types.Value) {
	kv.mu.Lock()
	kv.applyWrites(t, s, z, combined)
	kv.mu.Unlock()
}

// applyWrites adds combined to every write of t owned by s. Callers hold
// kv.mu for writing.
func (kv *KV) applyWrites(t *types.Txn, s types.ShardID, z int, combined types.Value) {
	for _, k := range t.Writes {
		if types.OwnerShard(k, z) != s {
			continue
		}
		if i, ok := kv.find(k); ok {
			kv.vals[i] += combined
		} else {
			kv.insert(k, kv.fresh[k]+combined)
		}
	}
}

// ReadLocal returns the current values of the reads of t owned by shard s,
// in key order, for accumulation into Forward read sets.
func (kv *KV) ReadLocal(t *types.Txn, s types.ShardID, z int) ([]types.Key, []types.Value) {
	var ks []types.Key
	var vs []types.Value
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			ks = append(ks, k)
			vs = append(vs, kv.get(k))
		}
	}
	return ks, vs
}

// Digest folds the table into a single state digest. The fold is a
// commutative accumulation (sum of key*value mixes), cheap and
// order-independent; collisions are irrelevant for the comparisons it
// serves (honest replicas' identical states in tests and the chaos
// checkers). Every transaction executes under the write lock, so Digest
// sees whole transactions; callers that need a batch boundary take it from
// the event loop between batches.
func (kv *KV) Digest() types.Digest {
	kv.rlockOrdered()
	defer kv.mu.RUnlock()
	var acc [4]uint64
	for i, k := range kv.keys {
		acc[k%4] += uint64(k)*0x9E3779B97F4A7C15 ^ uint64(kv.vals[i])*0xC2B2AE3D27D4EB4F
	}
	var d types.Digest
	for i, a := range acc {
		for j := 0; j < 8; j++ {
			d[i*8+j] = byte(a >> (8 * j))
		}
	}
	return d
}

// Pair is one record of the table, used by snapshots (package wal) and
// state transfer (the wire type lives in package types).
type Pair = types.Pair

// Pairs returns every record in ascending key order — the canonical dump a
// snapshot persists: a copy of the table.
func (kv *KV) Pairs() []Pair {
	kv.rlockOrdered()
	defer kv.mu.RUnlock()
	out := make([]Pair, len(kv.keys))
	for i, k := range kv.keys {
		out[i] = Pair{K: k, V: kv.vals[i]}
	}
	return out
}

// Restore replaces the entire table content with pairs (crash recovery and
// peer state transfer installs). pairs in ascending key order, as Pairs
// returns them, are copied as they are; any other input is sorted once,
// and of several pairs with one key the last wins.
func (kv *KV) Restore(pairs []Pair) {
	byKey := func(a, b Pair) int { return cmp.Compare(a.K, b.K) }
	if !slices.IsSortedFunc(pairs, byKey) {
		pairs = slices.Clone(pairs)
		slices.SortStableFunc(pairs, byKey)
	}
	keys := make([]types.Key, 0, len(pairs))
	vals := make([]types.Value, 0, len(pairs))
	for i, p := range pairs {
		if i+1 < len(pairs) && pairs[i+1].K == p.K {
			continue
		}
		keys, vals = append(keys, p.K), append(vals, p.V)
	}
	kv.mu.Lock()
	kv.keys, kv.vals, kv.fresh = keys, vals, nil
	kv.mu.Unlock()
}

// ExecuteTxnPartial applies the shard-local fragment of t treating missing
// remote reads as zero instead of failing. The AHL and Sharper baselines use
// it: neither ships remote read values (supporting complex cross-shard
// transactions "remains an open problem" for them, Section 8.8), so their
// execution is best-effort over locally available data. Deterministic across
// replicas, which is all their response matching needs.
func (kv *KV) ExecuteTxnPartial(t *types.Txn, s types.ShardID, z int) types.Value {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.get(k)
		}
	}
	kv.applyWrites(t, s, z, combined)
	return combined
}
