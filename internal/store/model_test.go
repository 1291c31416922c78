package store

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringbft/internal/types"
)

// model is the reference table: a plain map with the semantics KV had when
// it was one.
type model map[types.Key]types.Value

func (m model) execute(t *types.Txn, s types.ShardID, z int, remote map[types.Key]types.Value, partial bool) (types.Value, bool) {
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += m[k]
		} else if v, ok := remote[k]; ok {
			combined += v
		} else if !partial {
			return 0, false
		}
	}
	for _, k := range t.Writes {
		if types.OwnerShard(k, z) == s {
			m[k] += combined
		}
	}
	return combined, true
}

func (m model) pairs() []Pair {
	out := make([]Pair, 0, len(m))
	for k, v := range m {
		out = append(out, Pair{K: k, V: v})
	}
	slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(a.K, b.K) })
	return out
}

// digest is Digest's definition: a commutative fold of key*value mixes
// into four lanes chosen by k mod 4, each lane little-endian.
func (m model) digest() types.Digest {
	var acc [4]uint64
	for k, v := range m {
		acc[k%4] += uint64(k)*0x9E3779B97F4A7C15 ^ uint64(v)*0xC2B2AE3D27D4EB4F
	}
	var d types.Digest
	for i, a := range acc {
		for j := 0; j < 8; j++ {
			d[i*8+j] = byte(a >> (8 * j))
		}
	}
	return d
}

// TestKVMatchesModel drives a KV and the map model through the same random
// operations — Get, Set, ExecuteTxn (with and without a missing remote
// read), ExecuteTxnPartial, ApplyTxnWrites, Preload into a non-empty table,
// Restore of unsorted pairs with duplicates — and compares them after every
// step: Get and Len always, and every few steps Pairs (strictly ascending,
// equal to the model) and Digest. Checking order only every few steps lets
// inserts pile up outside key order between merges.
func TestKVMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 27))
		const z = 3
		span := uint64(64 + rng.IntN(2048))
		key := func() types.Key { return types.Key(rng.Uint64N(span)) }
		keys := func() []types.Key {
			ks := make([]types.Key, rng.IntN(4))
			for i := range ks {
				ks[i] = key()
			}
			return ks
		}
		kv, m := NewKV(), model{}
		for step := 0; step < 3000; step++ {
			s := types.ShardID(rng.IntN(z))
			switch op := rng.IntN(100); {
			case op < 30:
				k := key()
				if got, want := kv.Get(k), m[k]; got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d, want %d", seed, step, k, got, want)
				}
			case op < 50:
				k, v := key(), types.Value(rng.Uint64())
				kv.Set(k, v)
				m[k] = v
			case op < 75:
				tx := &types.Txn{Reads: keys(), Writes: keys(), Delta: types.Value(rng.Uint64())}
				remote := map[types.Key]types.Value{}
				for _, k := range tx.Reads {
					if types.OwnerShard(k, z) != s && rng.IntN(8) != 0 {
						remote[k] = types.Value(rng.Uint64())
					}
				}
				want, ok := m.execute(tx, s, z, remote, false)
				got, err := kv.ExecuteTxn(tx, s, z, remote)
				if (err == nil) != ok || got != want {
					t.Fatalf("seed %d step %d: ExecuteTxn = %d, %v; want %d, ok=%v", seed, step, got, err, want, ok)
				}
			case op < 85:
				tx := &types.Txn{Reads: keys(), Writes: keys(), Delta: types.Value(rng.Uint64())}
				want, _ := m.execute(tx, s, z, nil, true)
				if got := kv.ExecuteTxnPartial(tx, s, z); got != want {
					t.Fatalf("seed %d step %d: ExecuteTxnPartial = %d, want %d", seed, step, got, want)
				}
			case op < 93:
				tx := &types.Txn{Writes: keys()}
				c := types.Value(rng.Uint64())
				kv.ApplyTxnWrites(tx, s, z, c)
				for _, k := range tx.Writes {
					if types.OwnerShard(k, z) == s {
						m[k] += c
					}
				}
			case op < 97:
				zz, n := 1+rng.IntN(4), rng.IntN(int(span)/2)
				ps := types.ShardID(rng.IntN(zz))
				kv.Preload(ps, zz, n)
				for i := 0; i < n; i++ {
					k := types.Key(uint64(ps) + uint64(i)*uint64(zz))
					m[k] = types.Value(k)
				}
			default:
				pairs := make([]Pair, rng.IntN(int(span)))
				for i := range pairs {
					pairs[i] = Pair{K: key(), V: types.Value(rng.Uint64())}
				}
				kv.Restore(pairs)
				m = model{}
				for _, p := range pairs {
					m[p.K] = p.V
				}
			}
			if kv.Len() != len(m) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, kv.Len(), len(m))
			}
			if step%16 != 0 {
				continue
			}
			got := kv.Pairs()
			for i := 1; i < len(got); i++ {
				if got[i-1].K >= got[i].K {
					t.Fatalf("seed %d step %d: Pairs not strictly ascending at %d: %d, %d", seed, step, i, got[i-1].K, got[i].K)
				}
			}
			if !slices.Equal(got, m.pairs()) {
				t.Fatalf("seed %d step %d: Pairs differ from the model", seed, step)
			}
			if kv.Digest() != m.digest() {
				t.Fatalf("seed %d step %d: Digest differs from the model", seed, step)
			}
		}
	}
}

// TestRestoreLastWins: of several pairs with one key, Restore keeps the
// last, whatever the order of the input, and leaves the caller's slice as
// it was.
func TestRestoreLastWins(t *testing.T) {
	in := []Pair{{K: 9, V: 1}, {K: 3, V: 2}, {K: 9, V: 3}, {K: 1, V: 4}, {K: 3, V: 5}, {K: 9, V: 6}}
	orig := slices.Clone(in)
	kv := NewKV()
	kv.Set(100, 1) // replaced wholesale
	kv.Restore(in)
	want := []Pair{{K: 1, V: 4}, {K: 3, V: 5}, {K: 9, V: 6}}
	if got := kv.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("Restore = %v, want %v", got, want)
	}
	if !slices.Equal(in, orig) {
		t.Fatal("Restore reordered its input")
	}
	kv.Restore([]Pair{{K: 2, V: 1}, {K: 2, V: 7}, {K: 5, V: 0}}) // sorted, one duplicate
	if got, want := kv.Pairs(), []Pair{{K: 2, V: 7}, {K: 5, V: 0}}; !slices.Equal(got, want) {
		t.Fatalf("Restore = %v, want %v", got, want)
	}
}

// TestKVConcurrentReaders runs Get, Pairs, Digest and Len readers against
// one goroutine executing transactions that update present keys and insert
// absent ones (so merges run under the readers). Under -race it checks the
// locking; without, that every dump a reader sees is strictly ascending and
// holds every preloaded key.
func TestKVConcurrentReaders(t *testing.T) {
	const n = 4096
	kv := NewKV()
	kv.Preload(0, 1, n)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 3000; i++ {
			k := types.Key(i * 7 % n)
			tx := &types.Txn{Reads: []types.Key{k}, Writes: []types.Key{k, types.Key(n + i)}, Delta: 1}
			if _, err := kv.ExecuteTxn(tx, 0, 1, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan string, 4)
	reader := func(f func() string) {
		defer wg.Done()
		for !done.Load() {
			if msg := f(); msg != "" {
				errs <- msg
				return
			}
		}
	}
	wg.Add(4)
	go reader(func() string {
		kv.Get(types.Key(n / 2))
		return ""
	})
	go reader(func() string {
		ps := kv.Pairs()
		if len(ps) < n {
			return "Pairs lost preloaded records"
		}
		for i := 1; i < len(ps); i++ {
			if ps[i-1].K >= ps[i].K {
				return "Pairs not strictly ascending"
			}
		}
		return ""
	})
	go reader(func() string {
		kv.Digest()
		return ""
	})
	go reader(func() string {
		if kv.Len() < n {
			return "Len below the preloaded count"
		}
		return ""
	})
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if got := kv.Len(); got != n+3000 {
		t.Fatalf("Len = %d, want %d", got, n+3000)
	}
}

// TestInsertsMergeRarely: writing absent keys never shifts the ordered
// table per key. 65,536 inserts in random order into an empty table change
// the ordered slices only when a merge folds a batch of them in, a
// logarithmic number of times.
func TestInsertsMergeRarely(t *testing.T) {
	const n = 65536
	keys := make([]types.Key, n)
	for i := range keys {
		keys[i] = types.Key(i)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	kv := NewKV()
	merges, ordered := 0, 0
	for _, k := range keys {
		kv.Set(k, types.Value(k))
		if len(kv.keys) != ordered {
			merges, ordered = merges+1, len(kv.keys)
		}
	}
	t.Logf("%d inserts, %d merges", n, merges)
	if merges > 16 {
		t.Fatalf("%d merges for %d inserts, want a logarithmic number", merges, n)
	}
	if kv.Len() != n || kv.Get(keys[0]) != types.Value(keys[0]) {
		t.Fatalf("Len = %d after %d inserts", kv.Len(), n)
	}
}

// TestNoQuadraticCliff: the table-building paths that do not start from a
// sorted partition — inserts in random order, Restore of unsorted input
// with duplicates, Preload over a table that holds an interleaved
// partition — scale like n log n. Sixteen times the keys must cost well
// under the 256 times a shift per key would (n log n gives about 21); the
// best of five runs keeps scheduling noise out of the ratio.
func TestNoQuadraticCliff(t *testing.T) {
	const small, large = 1 << 12, 1 << 16
	cases := map[string]func(n int) func(){
		"insert": func(n int) func() {
			keys := rand.New(rand.NewPCG(1, 2)).Perm(n)
			return func() {
				kv := NewKV()
				for _, k := range keys {
					kv.Set(types.Key(k), 1)
				}
				kv.Pairs()
			}
		},
		"restore": func(n int) func() {
			pairs := make([]Pair, n)
			for i := range pairs {
				pairs[i] = Pair{K: types.Key((n - i) / 2), V: types.Value(i)}
			}
			return func() { NewKV().Restore(pairs) }
		},
		"preload": func(n int) func() {
			return func() {
				kv := NewKV()
				kv.Preload(1, 2, n)
				kv.Preload(0, 2, n)
			}
		},
	}
	best := func(f func()) time.Duration {
		b := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			f()
			b = min(b, time.Since(t0))
		}
		return b
	}
	for _, name := range []string{"insert", "restore", "preload"} {
		ts, tl := best(cases[name](small)), best(cases[name](large))
		ratio := float64(tl) / float64(max(ts, time.Microsecond))
		t.Logf("%s: %d keys %v, %d keys %v (x%.1f)", name, small, ts, large, tl, ratio)
		if ratio > 96 {
			t.Errorf("%s: %d keys took %v, %d keys %v (x%.0f): not n log n", name, small, ts, large, tl, ratio)
		}
	}
}
