package ringbft

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"ringbft/internal/types"
)

// tickFixture gives replica s0/r0 4,096 executed csts and 8 unfinished
// ones: locked, waiting on their rotation, with the remote timer armed at
// the current time and so not due. It returns the unfinished ones.
func tickFixture(c *cluster) (*Replica, map[types.Digest]*cstState) {
	r := c.replicas[types.ReplicaNode(0, 0)]
	unfinished := make(map[types.Digest]*cstState)
	for i := 0; i < 4096+8; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		d := sha256Sum(buf[:])
		cs := r.cst(d)
		if i < 4096 {
			cs.locked, cs.executed = true, true
			for j := 0; j <= c.cfg.F(); j++ {
				cs.fwdFrom[types.ReplicaNode(1, j)] = struct{}{}
			}
			continue
		}
		cs.locked = true
		cs.fwdFirst = c.now
		unfinished[d] = cs
	}
	return r, unfinished
}

// TestHandleTickWalksLive: of 4,096 executed csts and 8 unfinished ones,
// one timer pass leaves only the 8 on the pass, so every later pass visits
// 8.
func TestHandleTickWalksLive(t *testing.T) {
	c := newCluster(t, 2, 4)
	r, unfinished := tickFixture(c)
	r.HandleTick(c.now)
	if !reflect.DeepEqual(r.live, unfinished) {
		t.Fatalf("tick pass holds %d csts after one pass, want the %d unfinished", len(r.live), len(unfinished))
	}
	if len(c.queue) != 0 {
		t.Fatalf("a pass with no timer due sent %d messages", len(c.queue))
	}
}

// TestHandleTickRearmed: an executed cst whose remote timer was never armed
// leaves the tick pass; a Forward copy arming the timer puts it back, and the
// timer then fires a RemoteView complaint.
func TestHandleTickRearmed(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	held := holdRing(c, b, types.MsgForward, 1)
	r := c.replicas[types.ReplicaNode(1, 1)]
	r.cst(d).executed = true
	r.HandleTick(c.now)
	if _, ok := r.live[d]; ok {
		t.Fatal("an executed cst with no remote timer stayed on the tick pass")
	}

	r.HandleMessage(held[types.ReplicaNode(0, 1)])
	if _, ok := r.live[d]; !ok || r.csts[d].fwdFirst.IsZero() {
		t.Fatal("a Forward copy armed the remote timer without putting the cst back")
	}
	c.queue = c.queue[:0]
	c.now = c.now.Add(c.cfg.RemoteTimeout + time.Millisecond)
	r.HandleTick(c.now)
	complained := false
	for _, q := range c.queue {
		complained = complained || (q.m.Type == types.MsgRemoteView && q.m.Digest == d && q.to == types.ReplicaNode(0, 1))
	}
	if !complained {
		t.Fatal("the re-armed remote timer did not fire")
	}
}
