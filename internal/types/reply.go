package types

// ReplyQuorum is a client's acceptance rule for one request: the request is
// answered once f+1 distinct replicas of its batch's initiator shard have
// responded under its digest with identical results (equal HashValues), and
// those results are the answer. At most f replicas are faulty, so at least
// one of the f+1 is honest; a faulty reply that arrives first is outvoted,
// not returned.
type ReplyQuorum struct {
	digest   Digest
	shard    ShardID
	replicas int // replicas per shard
	txns     int // results a reply must carry, one per transaction
	need     int // f+1
	voted    map[NodeID]struct{}
	tally    map[uint64]int
}

// NewReplyQuorum starts the quorum for batch b, submitted under digest d, in
// a deployment of replicas replicas per shard.
func NewReplyQuorum(b *Batch, d Digest, replicas int) *ReplyQuorum {
	return &ReplyQuorum{
		digest: d, shard: b.Initiator(), replicas: replicas, txns: len(b.Txns),
		need:  (replicas-1)/3 + 1,
		voted: make(map[NodeID]struct{}),
		tally: make(map[uint64]int),
	}
}

// Add counts m and returns the agreed results once the quorum holds. A
// message that is not a response to this request, comes from outside the
// initiator shard, repeats a voter or carries the wrong number of results
// does not count.
func (q *ReplyQuorum) Add(m *Message) ([]Value, bool) {
	if m.Type != MsgResponse || m.Digest != q.digest || m.From.Kind != KindReplica ||
		m.From.Shard != q.shard || m.From.Index < 0 || m.From.Index >= q.replicas ||
		len(m.Results) != q.txns {
		return nil, false
	}
	if _, dup := q.voted[m.From]; dup {
		return nil, false
	}
	q.voted[m.From] = struct{}{}
	h := HashValues(m.Results)
	q.tally[h]++
	if q.tally[h] < q.need {
		return nil, false
	}
	return m.Results, true
}
