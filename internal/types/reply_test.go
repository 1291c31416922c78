package types

import (
	"slices"
	"testing"
)

func TestReplyQuorumOutvotesMismatchFirst(t *testing.T) {
	b := &Batch{
		Txns:     []Txn{{ID: TxnID{Client: 1, Seq: 1}, Writes: []Key{4}}},
		Involved: []ShardID{1},
	}
	d := b.Digest()
	q := NewReplyQuorum(b, d, 4) // f = 1: two matching replies answer
	resp := func(from NodeID, v Value) *Message {
		return &Message{Type: MsgResponse, From: from, Digest: d, Results: []Value{v}}
	}
	steps := []struct {
		m    *Message
		why  string
		done bool
	}{
		{resp(ReplicaNode(1, 0), 99), "faulty reply arrives first", false},
		{resp(ReplicaNode(1, 0), 7), "a voter counts once", false},
		{resp(ReplicaNode(2, 1), 7), "not the initiator shard", false},
		{resp(ReplicaNode(1, 4), 7), "index out of range", false},
		{resp(ClientNode(3), 7), "not a replica", false},
		{&Message{Type: MsgResponse, From: ReplicaNode(1, 1), Digest: Digest{1}, Results: []Value{7}}, "another request", false},
		{&Message{Type: MsgResponse, From: ReplicaNode(1, 1), Digest: d, Results: []Value{7, 7}}, "wrong result count", false},
		{resp(ReplicaNode(1, 1), 7), "first honest reply", false},
		{resp(ReplicaNode(1, 2), 7), "second matching reply", true},
	}
	for _, st := range steps {
		got, done := q.Add(st.m)
		if done != st.done {
			t.Fatalf("%s: done = %v, want %v", st.why, done, st.done)
		}
		if done && !slices.Equal(got, []Value{7}) {
			t.Fatalf("%s: results %v, want the agreed [7]", st.why, got)
		}
	}
}
