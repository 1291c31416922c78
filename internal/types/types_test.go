package types

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOwnerShardPartitionsAllKeys(t *testing.T) {
	f := func(k uint64, zRaw uint8) bool {
		z := int(zRaw%16) + 1
		s := OwnerShard(Key(k), z)
		return s >= 0 && int(s) < z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerShardZeroShards(t *testing.T) {
	if got := OwnerShard(42, 0); got != 0 {
		t.Fatalf("OwnerShard with z=0 = %d, want 0", got)
	}
}

func TestInvolvedShardsSortedAndDeduped(t *testing.T) {
	f := func(reads, writes []uint64) bool {
		tx := Txn{}
		for _, k := range reads {
			tx.Reads = append(tx.Reads, Key(k))
		}
		for _, k := range writes {
			tx.Writes = append(tx.Writes, Key(k))
		}
		inv := tx.InvolvedShards(7)
		for i := 1; i < len(inv); i++ {
			if inv[i] <= inv[i-1] {
				return false // must be strictly ascending (sorted, unique)
			}
		}
		// Every key's owner must appear.
		for _, k := range tx.Reads {
			if !contains(inv, OwnerShard(k, 7)) {
				return false
			}
		}
		for _, k := range tx.Writes {
			if !contains(inv, OwnerShard(k, 7)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func contains(s []ShardID, x ShardID) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func TestReadsWritesAtPartition(t *testing.T) {
	tx := Txn{Reads: []Key{0, 1, 2, 3, 4, 5}, Writes: []Key{6, 7, 8}}
	z := 3
	total := 0
	for s := 0; s < z; s++ {
		total += len(tx.ReadsAt(ShardID(s), z))
	}
	if total != len(tx.Reads) {
		t.Fatalf("ReadsAt partitions %d keys, want %d", total, len(tx.Reads))
	}
	for s := 0; s < z; s++ {
		for _, k := range tx.WritesAt(ShardID(s), z) {
			if OwnerShard(k, z) != ShardID(s) {
				t.Fatalf("WritesAt(%d) returned foreign key %d", s, k)
			}
		}
	}
}

func TestBatchDigestDeterministicAndSensitive(t *testing.T) {
	b1 := &Batch{
		Txns:     []Txn{{ID: TxnID{Client: 1, Seq: 1}, Reads: []Key{1}, Writes: []Key{1}, Delta: 5}},
		Involved: []ShardID{0, 1},
	}
	b2 := &Batch{
		Txns:     []Txn{{ID: TxnID{Client: 1, Seq: 1}, Reads: []Key{1}, Writes: []Key{1}, Delta: 5}},
		Involved: []ShardID{0, 1},
	}
	if b1.Digest() != b2.Digest() {
		t.Fatal("identical batches produced different digests")
	}
	b2.Txns[0].Delta = 6
	if b1.Digest() == b2.Digest() {
		t.Fatal("digest insensitive to Delta")
	}
	b2.Txns[0].Delta = 5
	b2.Involved = []ShardID{0, 2}
	if b1.Digest() == b2.Digest() {
		t.Fatal("digest insensitive to involved set")
	}
}

func TestRingOrderNavigation(t *testing.T) {
	b := &Batch{Involved: []ShardID{1, 3, 5}}
	if got := b.Initiator(); got != 1 {
		t.Fatalf("Initiator = %d, want 1", got)
	}
	next, wrapped := b.NextInRing(1)
	if next != 3 || wrapped {
		t.Fatalf("NextInRing(1) = %d,%v", next, wrapped)
	}
	next, wrapped = b.NextInRing(5)
	if next != 1 || !wrapped {
		t.Fatalf("NextInRing(5) = %d,%v, want 1,true (wrap)", next, wrapped)
	}
	if got := b.PrevInRing(1); got != 5 {
		t.Fatalf("PrevInRing(1) = %d, want 5", got)
	}
	if got := b.PrevInRing(3); got != 1 {
		t.Fatalf("PrevInRing(3) = %d, want 1", got)
	}
	if !b.Involves(3) || b.Involves(2) {
		t.Fatal("Involves wrong")
	}
	if !b.IsCrossShard() {
		t.Fatal("3-shard batch must be cross-shard")
	}
	single := &Batch{Involved: []ShardID{2}}
	if single.IsCrossShard() {
		t.Fatal("1-shard batch must not be cross-shard")
	}
}

// TestRingTraversalVisitsAllOnce: following NextInRing from the initiator
// visits every involved shard exactly once before wrapping (property check
// over random involved sets).
func TestRingTraversalVisitsAllOnce(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[ShardID]struct{}{}
		for _, r := range raw {
			seen[ShardID(r%32)] = struct{}{}
		}
		if len(seen) < 2 {
			return true
		}
		var inv []ShardID
		for s := range seen {
			inv = append(inv, s)
		}
		// sort
		for i := 1; i < len(inv); i++ {
			for j := i; j > 0 && inv[j] < inv[j-1]; j-- {
				inv[j], inv[j-1] = inv[j-1], inv[j]
			}
		}
		b := &Batch{Involved: inv}
		cur := b.Initiator()
		visited := map[ShardID]struct{}{cur: {}}
		for i := 0; i < len(inv); i++ {
			next, wrapped := b.NextInRing(cur)
			if wrapped {
				return i == len(inv)-1 && next == b.Initiator()
			}
			if _, dup := visited[next]; dup {
				return false
			}
			visited[next] = struct{}{}
			cur = next
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigBytesInjective(t *testing.T) {
	a := SigBytes(MsgCommit, 1, 2, 3, Digest{1}, ReplicaNode(1, 2))
	b := SigBytes(MsgCommit, 1, 2, 3, Digest{1}, ReplicaNode(1, 3))
	c := SigBytes(MsgPrepare, 1, 2, 3, Digest{1}, ReplicaNode(1, 2))
	d := SigBytes(MsgCommit, 1, 2, 4, Digest{1}, ReplicaNode(1, 2))
	if string(a) == string(b) || string(a) == string(c) || string(a) == string(d) {
		t.Fatal("SigBytes collides across distinct tuples")
	}
	// Committee and replica with same indices must differ (Kind is signed).
	e := SigBytes(MsgCommit, CommitteeShard, 2, 3, Digest{1}, CommitteeNode(2))
	f := SigBytes(MsgCommit, CommitteeShard, 2, 3, Digest{1}, NodeID{Kind: KindReplica, Shard: CommitteeShard, Index: 2})
	if string(e) == string(f) {
		t.Fatal("SigBytes collides across node kinds")
	}
}

// TestConfigValidate covers every arm of Validate: each case breaks exactly
// one field of an otherwise valid config and must be rejected for it.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(3, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = 0 }},
		{"ReplicasPerShard", func(c *Config) { c.ReplicasPerShard = 3 }},
		{"BatchSize", func(c *Config) { c.BatchSize = 0 }},
		{"PipelineDepth", func(c *Config) { c.PipelineDepth = 0 }},
		{"PipelineDepth", func(c *Config) { c.PipelineDepth = -3 }},
		{"CheckpointInterval", func(c *Config) { c.CheckpointInterval = 0 }},
	} {
		bad := good
		tc.mutate(&bad)
		err := bad.Validate()
		if err == nil {
			t.Fatalf("config with bad %s accepted: %+v", tc.field, bad)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("bad %s rejected for the wrong reason: %v", tc.field, err)
		}
	}
}

// TestConfigFieldCount pins the knob surface: every field of Config is a
// configuration dimension tests and benchmarks must cover, so adding one is
// a deliberate act that updates this number.
func TestConfigFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 13 {
		t.Fatalf("types.Config has %d fields, want 13", n)
	}
}

func TestQuorumArithmetic(t *testing.T) {
	for n := 4; n <= 40; n++ {
		c := DefaultConfig(1, n)
		f := c.F()
		if 3*f+1 > n {
			t.Fatalf("n=%d: f=%d violates n >= 3f+1", n, f)
		}
		if 3*(f+1)+1 <= n {
			t.Fatalf("n=%d: f=%d is not maximal", n, f)
		}
		if c.NF() != n-f {
			t.Fatalf("n=%d: NF=%d, want %d", n, c.NF(), n-f)
		}
		// Two NF quorums must intersect in a non-faulty replica
		// (Proposition 6.1's counting argument).
		if 2*c.NF()-n <= f {
			t.Fatalf("n=%d: quorums intersect in <= f replicas", n)
		}
	}
}

func TestWireSizeScalesWithBatch(t *testing.T) {
	small := &Message{Type: MsgPrePrepare, Batch: &Batch{Txns: make([]Txn, 10)}}
	large := &Message{Type: MsgPrePrepare, Batch: &Batch{Txns: make([]Txn, 1000)}}
	if small.WireSize() >= large.WireSize() {
		t.Fatal("WireSize does not grow with batch size")
	}
	prep := &Message{Type: MsgPrepare}
	if prep.WireSize() != 216 {
		t.Fatalf("Prepare size %d, want paper's 216", prep.WireSize())
	}
	ckpt := &Message{Type: MsgCheckpoint}
	if ckpt.WireSize() != 164 {
		t.Fatalf("Checkpoint size %d, want paper's 164", ckpt.WireSize())
	}
}

func TestNodeIDStrings(t *testing.T) {
	cases := map[string]NodeID{
		"s2/r3": ReplicaNode(2, 3),
		"c9":    ClientNode(9),
		"rc/r1": CommitteeNode(1),
	}
	for want, id := range cases {
		if got := id.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", id, got, want)
		}
	}
	if KindReplica.String() != "replica" || KindClient.String() != "client" || KindCommittee.String() != "committee" {
		t.Error("NodeKind strings wrong")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgPrePrepare.String() != "PrePrepare" || MsgForward.String() != "Forward" {
		t.Fatal("MsgType strings wrong")
	}
	if MsgType(200).String() != "Invalid" {
		t.Fatal("out-of-range MsgType should be Invalid")
	}
	if int(msgTypeCount) != len(msgTypeNames) {
		t.Fatalf("msgTypeNames has %d entries for %d types", len(msgTypeNames), msgTypeCount)
	}
}
