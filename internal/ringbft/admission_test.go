package ringbft

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// tally drains c's send queue into counts keyed by message type and by
// whether the copy stays in shard own (a relay to a peer) or leaves it.
func tally(c *cluster, own types.ShardID) map[string]int {
	out := make(map[string]int)
	for _, q := range c.queue {
		where := "out"
		if q.to.Kind == types.KindReplica && q.to.Shard == own {
			where = "relay"
		}
		out[fmt.Sprintf("%v %s", q.m.Type, where)]++
	}
	c.queue = c.queue[:0]
	return out
}

// onceStep delivers one copy from sender index from and expects exactly
// the sends in want.
type onceStep struct {
	from int
	want map[string]int
}

// TestRingOnceRules pins the once-only rules of the linear communication
// primitive for Forward, Execute and RemoteView at receiver index 1 (n = 4,
// f = 1): the lane copy — the one from the same-index sender — is relayed
// to the three peers on its first count; a re-sent lane copy of a Forward
// or Execute is relayed again, one of a RemoteView is not; and the quorum
// action fires at the second distinct sender and never at the third or
// fourth.
func TestRingOnceRules(t *testing.T) {
	fwd, exec, rv := types.MsgForward.String(), types.MsgExecute.String(), types.MsgRemoteView.String()
	cases := []struct {
		name  string
		setup func(t *testing.T) (c *cluster, recv types.NodeID, copies map[int]*types.Message)
		steps []onceStep
	}{
		{
			// The wrap-around Forward at a locked initiator: the quorum
			// executes and passes the Execute on, and re-anchors the remote
			// timer.
			name: "Forward",
			setup: func(t *testing.T) (*cluster, types.NodeID, map[int]*types.Message) {
				c := newCluster(t, 2, 4)
				b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
				return c, types.ReplicaNode(0, 1), byIndex(holdRing(c, b, types.MsgForward, 0))
			},
			steps: []onceStep{
				{1, map[string]int{fwd + " relay": 3}},
				{0, map[string]int{exec + " out": 1}},
				{1, map[string]int{fwd + " relay": 3, exec + " out": 1}},
				{2, map[string]int{}},
				{3, map[string]int{}},
			},
		},
		{
			// The second-rotation Execute at a locked middle shard: the quorum
			// executes and passes the Execute on.
			name: "Execute",
			setup: func(t *testing.T) (*cluster, types.NodeID, map[int]*types.Message) {
				c := newCluster(t, 3, 4)
				b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
				return c, types.ReplicaNode(1, 1), byIndex(holdRing(c, b, types.MsgExecute, 1))
			},
			steps: []onceStep{
				{1, map[string]int{exec + " relay": 3}},
				{0, map[string]int{exec + " out": 1}},
				{1, map[string]int{exec + " relay": 3}},
				{2, map[string]int{}},
				{3, map[string]int{}},
			},
		},
		{
			// Complaints at an executed replica: each fresh one is answered
			// with the Execute, and the quorum retransmits the Forward and
			// the Execute down the lane.
			name: "RemoteView",
			setup: func(t *testing.T) (*cluster, types.NodeID, map[int]*types.Message) {
				c := newCluster(t, 2, 4)
				b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
				c.submit(1, b)
				return c, types.ReplicaNode(0, 1), complaints(t, c, b, 1)
			},
			steps: []onceStep{
				{1, map[string]int{exec + " out": 1, rv + " relay": 3}},
				{0, map[string]int{exec + " out": 2, fwd + " out": 1}},
				{1, map[string]int{exec + " out": 1}},
				{2, map[string]int{exec + " out": 1}},
				{3, map[string]int{exec + " out": 1}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, recv, copies := tc.setup(t)
			r := c.replicas[recv]
			c.queue = c.queue[:0]
			var anchor time.Time
			for i, st := range tc.steps {
				c.now = c.now.Add(time.Millisecond)
				r.HandleMessage(copies[st.from])
				if got := tally(c, recv.Shard); !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d (sender %d): sends %v, want %v", i+1, st.from, got, st.want)
				}
				if tc.name != "Forward" {
					continue
				}
				// The Forward quorum re-anchors the remote timer, once.
				cs := r.csts[copies[st.from].Digest]
				if i == 1 {
					anchor = c.now
				}
				if i >= 1 && !cs.fwdFirst.Equal(anchor) {
					t.Fatalf("step %d: remote timer anchored at %v, want %v", i+1, cs.fwdFirst, anchor)
				}
			}
		})
	}
}

// byIndex re-keys held copies by their sender's replica index.
func byIndex(held map[types.NodeID]*types.Message) map[int]*types.Message {
	out := make(map[int]*types.Message, len(held))
	for id, m := range held {
		out[id.Index] = m
	}
	return out
}

// complaints builds one signed RemoteView about b from every replica of
// shard from, keyed by index.
func complaints(t testing.TB, c *cluster, b *types.Batch, from types.ShardID) map[int]*types.Message {
	out := make(map[int]*types.Message, c.n)
	for i := 0; i < c.n; i++ {
		id := types.ReplicaNode(from, i)
		ring, err := c.kg.Ring(id)
		if err != nil {
			t.Fatal(err)
		}
		m := &types.Message{Type: types.MsgRemoteView, From: id, Shard: from, Digest: b.Digest(), Batch: b}
		m.Sig = crypto.SignMessage(ring, m)
		out[i] = m
	}
	return out
}

// admissionFixture is a 3-shard cluster whose replica s1/r1 is about to
// receive ring traffic: the Forward copies of bf into shard 1 and the
// Execute copies of be into shard 1 are held (so be is locked at shard 1,
// waiting for them), and every replica of shard 2 has signed a RemoteView
// about be. It returns the cluster and every held or signed copy.
func admissionFixture(t testing.TB) (*cluster, []*types.Message) {
	c := newCluster(t, 3, 4)
	bf := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
	be := mkBatch(2, 1, 3, []types.ShardID{0, 1, 2}, 3)
	var copies []*types.Message
	for _, held := range []map[types.NodeID]*types.Message{
		holdRing(c, bf, types.MsgForward, 1),
		holdRing(c, be, types.MsgExecute, 1),
	} {
		for _, id := range types.SortedNodeKeys(held) {
			copies = append(copies, held[id])
		}
	}
	rvs := complaints(t, c, be, 2)
	for i := 0; i < c.n; i++ {
		copies = append(copies, rvs[i])
	}
	c.queue = c.queue[:0]
	return c, copies
}

// senderSets returns, per cst, the sizes of its three sender sets.
func senderSets(r *Replica) map[types.Digest][3]int {
	out := make(map[types.Digest][3]int, len(r.csts))
	for d, cs := range r.csts {
		out[d] = [3]int{len(cs.fwdFrom), len(cs.execFrom), len(cs.remoteComplaints)}
	}
	return out
}

// FuzzRingAdmission feeds one wire message to s1/r1 of admissionFixture,
// twice, through the decoder and HandleMessage, seeded with the real
// Forward, Execute and RemoteView encodings. Whatever the bytes, the
// replica does not panic, a re-delivered copy counts no sender again, each
// counted sender is a replica of the shard the rule admits (the previous
// shard in the ring for Forward and Execute, the next for RemoteView), and
// every cst with a counted Forward holds a batch that hashes to its digest.
func FuzzRingAdmission(f *testing.F) {
	_, copies := admissionFixture(f)
	for _, m := range copies {
		f.Add(types.AppendMessage(nil, m))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var m types.Message
		if types.DecodeMessage(in, &m) != nil {
			return
		}
		c, _ := admissionFixture(t)
		recv := types.ReplicaNode(1, 1)
		r := c.replicas[recv]
		r.HandleMessage(&m)
		once := senderSets(r)
		again := m
		r.HandleMessage(&again)
		if twice := senderSets(r); !reflect.DeepEqual(once, twice) {
			t.Fatalf("a re-delivered %v counted a sender again: %v, then %v", m.Type, once, twice)
		}
		for d, cs := range r.csts {
			if len(cs.fwdFrom) > 0 && (cs.batch == nil || cs.batch.Digest() != d) {
				t.Fatalf("cst %x counts %d Forward senders without its batch", d[:4], len(cs.fwdFrom))
			}
			if cs.batch == nil {
				continue
			}
			prev := cs.batch.PrevInRing(recv.Shard)
			next, _ := cs.batch.NextInRing(recv.Shard)
			for _, set := range []struct {
				ids   []types.NodeID
				shard types.ShardID
			}{
				{types.SortedNodeKeys(cs.fwdFrom), prev},
				{types.SortedNodeKeys(cs.execFrom), prev},
				{types.SortedNodeKeys(cs.remoteComplaints), next},
			} {
				for _, id := range set.ids {
					if id.Kind != types.KindReplica || id.Shard != set.shard || id.Index < 0 || id.Index >= c.n {
						t.Fatalf("cst %x counted %v, not a replica of shard %d", d[:4], id, set.shard)
					}
				}
			}
		}
	})
}
