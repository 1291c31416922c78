// Package store implements each shard's data substrate: a YCSB-style
// key-value table with deterministic read-modify-write execution, and the
// per-key lock table RingBFT uses to lock read-write sets in transactional
// sequence order (Fig 5 lines 17-28).
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ringbft/internal/types"
)

// kvStripeCount shards the table's lock space. Power of two so the stripe
// index is a shift off a Fibonacci hash; 64 stripes keep contention
// negligible while Digest still snapshots the full table by holding every
// stripe briefly.
// kvStripeShift selects the top kvStripeBits bits of the hash; the
// compile-time guard below keeps the three constants in lockstep when
// tuning the stripe count.
const (
	kvStripeCount = 64
	kvStripeBits  = 6
	kvStripeShift = 64 - kvStripeBits
)

var _ [kvStripeCount - 1<<kvStripeBits]struct{} // 1<<kvStripeBits == kvStripeCount
var _ [1<<kvStripeBits - kvStripeCount]struct{}

type kvStripe struct {
	mu   sync.RWMutex
	data map[types.Key]types.Value
}

// KV is one shard's partition of the YCSB table. The owning replica executes
// batches from its event loop, one transaction at a time; locks are striped
// by key so goroutines outside that loop (inspection through
// Replica.Store, benchmarks) can read while it writes.
type KV struct {
	stripes [kvStripeCount]kvStripe
}

// NewKV returns an empty table.
func NewKV() *KV {
	kv := &KV{}
	for i := range kv.stripes {
		kv.stripes[i].data = make(map[types.Key]types.Value)
	}
	return kv
}

func (kv *KV) stripe(k types.Key) *kvStripe {
	return &kv.stripes[(uint64(k)*0x9E3779B97F4A7C15)>>kvStripeShift]
}

// Preload installs n records owned by shard s in a system of z shards with
// initial values equal to their key, mirroring the paper's identical YCSB
// table initialization at every replica (Section 8, "Benchmark").
//
// Set-up cost is part of every cluster start (a replica holds up to
// hundreds of thousands of records), so empty stripes are sized from n up
// front — the Fibonacci hash spreads the partition's keys evenly, an eighth
// of slack covers the spread — and, like Digest, the fill holds every stripe
// once instead of locking per key.
func (kv *KV) Preload(s types.ShardID, z int, n int) {
	perStripe := n/kvStripeCount + n/(8*kvStripeCount) + 1
	for i := range kv.stripes {
		st := &kv.stripes[i]
		st.mu.Lock()
		defer st.mu.Unlock()
		if len(st.data) == 0 {
			st.data = make(map[types.Key]types.Value, perStripe)
		}
	}
	for i := 0; i < n; i++ {
		k := types.Key(uint64(s) + uint64(i)*uint64(z))
		kv.stripe(k).data[k] = types.Value(k)
	}
}

// Get returns the value of k (zero if absent).
func (kv *KV) Get(k types.Key) types.Value {
	st := kv.stripe(k)
	st.mu.RLock()
	v := st.data[k]
	st.mu.RUnlock()
	return v
}

// Set writes v at k.
func (kv *KV) Set(k types.Key, v types.Value) {
	st := kv.stripe(k)
	st.mu.Lock()
	st.data[k] = v
	st.mu.Unlock()
}

// Len returns the number of records.
func (kv *KV) Len() int {
	n := 0
	for i := range kv.stripes {
		st := &kv.stripes[i]
		st.mu.RLock()
		n += len(st.data)
		st.mu.RUnlock()
	}
	return n
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
// Writes lock one stripe per key.
func (kv *KV) ExecuteTxn(t *types.Txn, s types.ShardID, z int, remote map[types.Key]types.Value) (types.Value, error) {
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.Get(k)
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
	kv.applyWrites(t, s, z, combined)
}

func (kv *KV) applyWrites(t *types.Txn, s types.ShardID, z int, combined types.Value) {
	for _, k := range t.Writes {
		if types.OwnerShard(k, z) != s {
			continue
		}
		st := kv.stripe(k)
		st.mu.Lock()
		st.data[k] += combined
		st.mu.Unlock()
	}
}

// ReadLocal returns the current values of the reads of t owned by shard s,
// in key order, for accumulation into Forward read sets.
func (kv *KV) ReadLocal(t *types.Txn, s types.ShardID, z int) ([]types.Key, []types.Value) {
	var ks []types.Key
	var vs []types.Value
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			ks = append(ks, k)
			vs = append(vs, kv.Get(k))
		}
	}
	return ks, vs
}

// Digest folds the table into a single state digest for checkpoints. The
// fold is a commutative accumulation (sum of key*value mixes) so it is
// order-independent and cheap; collisions are irrelevant for the simulated
// checkpoint agreement, which compares honest replicas' identical states.
// All stripes are read-locked for the duration, which keeps the fold from
// racing individual writes — but a multi-key transaction releases each
// write stripe as it goes, so callers must not run Digest concurrently
// with batch execution (every replica calls it from its event loop, between
// batches).
func (kv *KV) Digest() types.Digest {
	for i := range kv.stripes {
		kv.stripes[i].mu.RLock()
	}
	defer func() {
		for i := range kv.stripes {
			kv.stripes[i].mu.RUnlock()
		}
	}()
	var acc [4]uint64
	for i := range kv.stripes {
		//ringbft:ignore mapiter acc accumulates with commutative uint64 addition keyed by k; iteration order cannot change the digest
		for k, v := range kv.stripes[i].data {
			x := uint64(k)*0x9E3779B97F4A7C15 ^ uint64(v)*0xC2B2AE3D27D4EB4F
			acc[k%4] += x
		}
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

// Pairs returns every record sorted by key — the canonical dump a snapshot
// persists. Like Digest, it read-locks every stripe for the duration and
// must not run concurrently with batch execution.
func (kv *KV) Pairs() []Pair {
	for i := range kv.stripes {
		kv.stripes[i].mu.RLock()
	}
	n := 0
	for i := range kv.stripes {
		n += len(kv.stripes[i].data)
	}
	out := make([]Pair, 0, n)
	for i := range kv.stripes {
		for k, v := range kv.stripes[i].data {
			out = append(out, Pair{K: k, V: v})
		}
	}
	for i := range kv.stripes {
		kv.stripes[i].mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(a.K, b.K) })
	return out
}

// Restore replaces the entire table content with pairs (crash recovery and
// peer state transfer installs).
func (kv *KV) Restore(pairs []Pair) {
	for i := range kv.stripes {
		kv.stripes[i].mu.Lock()
		kv.stripes[i].data = make(map[types.Key]types.Value)
		kv.stripes[i].mu.Unlock()
	}
	for _, p := range pairs {
		kv.Set(p.K, p.V)
	}
}

// ExecuteTxnPartial applies the shard-local fragment of t treating missing
// remote reads as zero instead of failing. The AHL and Sharper baselines use
// it: neither ships remote read values (supporting complex cross-shard
// transactions "remains an open problem" for them, Section 8.8), so their
// execution is best-effort over locally available data. Deterministic across
// replicas, which is all their response matching needs.
func (kv *KV) ExecuteTxnPartial(t *types.Txn, s types.ShardID, z int) types.Value {
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.Get(k)
		}
	}
	kv.applyWrites(t, s, z, combined)
	return combined
}
