package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// refDigest is Batch.Digest as an incremental hasher, one Write per field:
// the reference the stack-buffer encoder must reproduce byte for byte.
func refDigest(b *Batch) Digest {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(b.Txns)))
	for i := range b.Txns {
		t := &b.Txns[i]
		writeU64(uint64(t.ID.Client))
		writeU64(t.ID.Seq)
		writeU64(uint64(len(t.Reads)))
		for _, k := range t.Reads {
			writeU64(uint64(k))
		}
		writeU64(uint64(len(t.Writes)))
		for _, k := range t.Writes {
			writeU64(uint64(k))
		}
		writeU64(uint64(t.Delta))
	}
	writeU64(uint64(len(b.Involved)))
	for _, s := range b.Involved {
		writeU64(uint64(s))
	}
	if len(b.Reqs) > 0 {
		writeU64(uint64(len(b.Reqs)))
		for _, n := range b.Reqs {
			writeU64(uint64(n))
		}
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// digestKATs are batches whose digests every replica, WAL record and
// certificate ever minted depends on; the hex values were computed with the
// incremental-hasher implementation refDigest preserves.
var digestKATs = []struct {
	name string
	b    *Batch
	hex  string
}{
	{"plain", &Batch{
		Txns:     []Txn{{ID: TxnID{Client: 7, Seq: 42}, Reads: []Key{1, 4}, Writes: []Key{4}, Delta: 3}},
		Involved: []ShardID{1},
	}, "6cb6c72e9878b1026159e2d0e0da4aac3e19255713ad2f0a656af41e4adca7b4"},
	{"coalesced", &Batch{
		Txns: []Txn{
			{ID: TxnID{Client: 7, Seq: 1}, Reads: []Key{3}, Writes: []Key{3}, Delta: 1},
			{ID: TxnID{Client: 8, Seq: 1}, Reads: []Key{6}, Writes: []Key{9}, Delta: 2},
			{ID: TxnID{Client: 8, Seq: 2}, Writes: []Key{12}, Delta: 5},
		},
		Involved: []ShardID{0}, Reqs: []uint32{1, 2},
	}, "e204889966e0814fe8c72be2ffeb555846023d0eb8cb9514cd2401c24ab62c84"},
	{"three-shard", &Batch{
		Txns:     []Txn{{ID: TxnID{Client: 2, Seq: 9}, Reads: []Key{0, 1, 2}, Writes: []Key{2, 5}, Delta: 11}},
		Involved: []ShardID{0, 1, 2},
	}, "943d9b436c0c7febd57c7cb4311405a0641d86157534c1a3fdee826868f3f59d"},
	{"noop", &Batch{}, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
}

func TestBatchDigestKnownAnswers(t *testing.T) {
	for _, c := range digestKATs {
		d := c.b.Digest()
		if got := hex.EncodeToString(d[:]); got != c.hex {
			t.Errorf("%s: Digest = %s, want %s", c.name, got, c.hex)
		}
		if d != refDigest(c.b) {
			t.Errorf("%s: Digest differs from the reference hasher", c.name)
		}
	}
}

// TestBatchDigestAllocs: Digest encodes into a stack buffer, so hashing a
// client batch or a full coalesced proposal allocates nothing.
func TestBatchDigestAllocs(t *testing.T) {
	for _, n := range []int{0, 1, 10, 50} {
		b := benchDigestBatch(n)
		if a := testing.AllocsPerRun(100, func() { b.Digest() }); a != 0 {
			t.Errorf("%d txns: Digest allocates %v times, want 0", n, a)
		}
	}
}

// TestBatchDigestSpills: an encoding past the stack buffer still hashes the
// same bytes.
func TestBatchDigestSpills(t *testing.T) {
	b := benchDigestBatch(200)
	if len(b.appendCanonical(nil)) <= digestStackBytes {
		t.Fatal("batch fits the stack buffer; grow it")
	}
	if b.Digest() != refDigest(b) {
		t.Fatal("spilled Digest differs from the reference hasher")
	}
}

// batchSource decodes batches from fuzz input over small alphabets, so
// independently decoded batches often coincide and the equal branch of the
// oracle is reached. Exhausted input reads as zeros.
type batchSource struct{ in []byte }

func (s *batchSource) next(mod int) int {
	if len(s.in) == 0 {
		return 0
	}
	v := int(s.in[0])
	s.in = s.in[1:]
	return v % mod
}

// keys decodes a slice of up to three keys; a zero count yields nil or an
// empty slice, which must compare and hash alike.
func (s *batchSource) keys() []Key {
	n := s.next(8)
	if n >= 4 {
		return []Key{}
	}
	var out []Key
	for range n {
		out = append(out, Key(s.next(3)))
	}
	return out
}

func (s *batchSource) batch() *Batch {
	b := &Batch{}
	for range s.next(4) {
		b.Txns = append(b.Txns, Txn{
			ID:     TxnID{Client: ClientID(s.next(2)), Seq: uint64(s.next(2))},
			Reads:  s.keys(),
			Writes: s.keys(),
			Delta:  Value(s.next(2)),
		})
	}
	for range s.next(3) {
		b.Involved = append(b.Involved, ShardID(s.next(3)))
	}
	for range s.next(3) {
		b.Reqs = append(b.Reqs, uint32(s.next(3)))
	}
	return b
}

// FuzzBatchDigest: two batches decoded from the input are field-by-field
// Equal exactly when their digests are equal, and Digest matches the
// reference incremental hasher on both. The Forward fast path relies on the
// first half: a copy Equal to the batch adopted under a checked digest is
// accepted without hashing.
func FuzzBatchDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 1, 2, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1, 1, 1, 1, 0, 1, 0})
	f.Add([]byte{2, 1, 1, 4, 0, 1, 1, 2, 5, 0, 1, 2, 0, 2, 2, 1, 1, 2, 1, 1, 4, 0, 1, 1, 2, 5, 0, 1, 2, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		src := &batchSource{in: in}
		a, b := src.batch(), src.batch()
		da, db := a.Digest(), b.Digest()
		if da != refDigest(a) || db != refDigest(b) {
			t.Fatalf("Digest differs from the reference hasher: %+v / %+v", a, b)
		}
		if a.Equal(b) != (da == db) || b.Equal(a) != (da == db) {
			t.Fatalf("Equal = %v but digests equal = %v: %+v / %+v", a.Equal(b), da == db, a, b)
		}
		if !a.Equal(a) {
			t.Fatalf("batch not Equal to itself: %+v", a)
		}
	})
}

// benchDigestBatch is n benchmark-shaped transactions: one read and one
// write each, the shape of a single-shard YCSB request.
func benchDigestBatch(n int) *Batch {
	b := &Batch{Involved: []ShardID{0}}
	for i := range n {
		b.Txns = append(b.Txns, Txn{
			ID: TxnID{Client: 1, Seq: uint64(i)}, Reads: []Key{Key(3 * i)}, Writes: []Key{Key(3 * i)}, Delta: Value(i),
		})
	}
	return b
}

var digestSink Digest

func BenchmarkBatchDigest(b *testing.B) {
	for _, n := range []int{10, 50} {
		batch := benchDigestBatch(n)
		b.Run(fmt.Sprintf("%dtxns", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				digestSink = batch.Digest()
			}
		})
	}
}
