package simnet

import (
	"testing"
	"time"

	"ringbft/internal/types"
)

func msg() *types.Message {
	return &types.Message{Type: types.MsgPrepare, From: types.ReplicaNode(0, 0)}
}

func recv(t *testing.T, ep *Endpoint, within time.Duration) *types.Message {
	t.Helper()
	select {
	case m := <-ep.Inbox():
		return m
	case <-time.After(within):
		return nil
	}
}

func TestDeliveryAndStats(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("message not delivered")
	}
	if n.Stats.MsgsSent.Load() != 1 || n.Stats.MsgsDelivered.Load() != 1 {
		t.Fatal("stats not recorded")
	}
	if n.Stats.BytesLocal.Load() == 0 || n.Stats.BytesCross.Load() != 0 {
		t.Fatal("same-region bytes misclassified")
	}
}

func TestCrossRegionByteAccounting(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(1, 0), Tokyo)
	a.Send(b.ID(), msg())
	recv(t, b, time.Second)
	if n.Stats.BytesCross.Load() == 0 {
		t.Fatal("cross-region bytes not accounted")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	a.Send(types.ReplicaNode(9, 9), msg())
	if n.Stats.MsgsDropped.Load() != 1 {
		t.Fatal("message to unknown node not counted as dropped")
	}
}

func TestCrashedNodeDropsTraffic(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	n.SetCrashed(b.ID(), true)
	a.Send(b.ID(), msg())
	if got := recv(t, b, 50*time.Millisecond); got != nil {
		t.Fatal("crashed node received a message")
	}
	n.SetCrashed(b.ID(), false)
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("revived node did not receive")
	}
}

func TestLinkFilterPartition(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(1, 0), Iowa)
	n.SetLinkFilter(func(from, to types.NodeID) bool {
		return from.Shard == 0 && to.Shard == 1
	})
	a.Send(b.ID(), msg())
	if got := recv(t, b, 50*time.Millisecond); got != nil {
		t.Fatal("partitioned link delivered")
	}
	// Reverse direction unaffected.
	b.Send(a.ID(), msg())
	if recv(t, a, time.Second) == nil {
		t.Fatal("reverse link blocked")
	}
	n.SetLinkFilter(nil)
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("healed link still blocked")
	}
}

func TestLossRateDropsRoughlyP(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}, Seed: 7})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	n.SetLossFilter(func(_, _ types.NodeID) float64 { return 0.5 })
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(b.ID(), msg())
	}
	time.Sleep(50 * time.Millisecond)
	dropped := n.Stats.MsgsDropped.Load()
	if dropped < total/3 || dropped > total*2/3 {
		t.Fatalf("dropped %d of %d at p=0.5", dropped, total)
	}
}

func TestLossFilterTargetsLinks(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}, Seed: 11})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(1, 0), Iowa)
	c := n.Attach(types.ReplicaNode(0, 1), Oregon)
	n.SetLossFilter(func(from, to types.NodeID) float64 {
		if from.Shard != to.Shard {
			return 1.0 // storm the cross-shard link only
		}
		return 0
	})
	a.Send(b.ID(), msg())
	if got := recv(t, b, 50*time.Millisecond); got != nil {
		t.Fatal("stormed link delivered")
	}
	a.Send(c.ID(), msg())
	if recv(t, c, time.Second) == nil {
		t.Fatal("healthy link lost the message")
	}
	n.SetLossFilter(nil)
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("healed link still dropping")
	}
}

func TestDelayFilterSkewsLink(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	n.SetDelayFilter(func(from, to types.NodeID) time.Duration {
		return 30 * time.Millisecond
	})
	start := time.Now()
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("delayed message never arrived")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delay filter not applied: delivered after %v", elapsed)
	}
	n.SetDelayFilter(nil)
	start = time.Now()
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("not delivered after clearing filter")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("cleared delay filter still delaying: %v", elapsed)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	n := New(Options{Latency: FixedLatency{200 * time.Microsecond}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	const k = 200
	for i := 0; i < k; i++ {
		m := msg()
		m.Seq = types.SeqNum(i)
		a.Send(b.ID(), m)
	}
	for i := 0; i < k; i++ {
		m := recv(t, b, time.Second)
		if m == nil {
			t.Fatalf("message %d missing", i)
		}
		if m.Seq != types.SeqNum(i) {
			t.Fatalf("reordered: got seq %d at position %d", m.Seq, i)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	n := New(Options{Latency: FixedLatency{30 * time.Millisecond}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	start := time.Now()
	a.Send(b.ID(), msg())
	if recv(t, b, time.Second) == nil {
		t.Fatal("not delivered")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	// 10 large messages through a thin NIC must take ~size*count/bps.
	n := New(Options{Latency: FixedLatency{0}, NodeBps: 1e6}) // 1 MB/s
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	big := &types.Message{Type: types.MsgPrePrepare, From: a.ID(), Batch: &types.Batch{Txns: make([]types.Txn, 100)}}
	start := time.Now()
	const k = 10
	for i := 0; i < k; i++ {
		a.Send(b.ID(), big)
	}
	for i := 0; i < k; i++ {
		if recv(t, b, 2*time.Second) == nil {
			t.Fatal("lost under bandwidth model")
		}
	}
	// ~5.4KB × 10 × 2 (egress+ingress) at 1MB/s ≈ 108ms.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("bandwidth not charged: %v", elapsed)
	}
}

func TestProcTimeCapsMessageRate(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}, ProcTime: time.Millisecond})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	start := time.Now()
	const k = 50
	for i := 0; i < k; i++ {
		a.Send(b.ID(), msg())
	}
	for i := 0; i < k; i++ {
		if recv(t, b, 2*time.Second) == nil {
			t.Fatal("lost under proc model")
		}
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("per-message processing not charged: %v (want >= ~50ms)", elapsed)
	}
}

func TestRTTMatrixSymmetricAndPositive(t *testing.T) {
	for a := Region(0); a < NumRegions; a++ {
		for b := Region(0); b < NumRegions; b++ {
			if RTT(a, b) != RTT(b, a) {
				t.Fatalf("RTT(%v,%v) asymmetric", a, b)
			}
			if RTT(a, b) <= 0 {
				t.Fatalf("RTT(%v,%v) <= 0", a, b)
			}
			if a != b && RTT(a, b) < RTT(a, a) {
				t.Fatalf("inter-region RTT below intra-region for %v-%v", a, b)
			}
		}
	}
}

func TestWANLatencyScale(t *testing.T) {
	full := WANLatency{Scale: 1}.Delay(Oregon, Tokyo)
	half := WANLatency{Scale: 0.5}.Delay(Oregon, Tokyo)
	if half*2 != full {
		t.Fatalf("scaling broken: full=%v half=%v", full, half)
	}
	if (WANLatency{}).Delay(Oregon, Tokyo) != full {
		t.Fatal("zero scale should default to 1")
	}
}

func TestShardRegionWraps(t *testing.T) {
	if ShardRegion(0) != Oregon || ShardRegion(15) != Oregon || ShardRegion(16) != Iowa {
		t.Fatal("shard-to-region placement wrong")
	}
	for r := Region(0); r < NumRegions; r++ {
		if r.String() == "unknown" {
			t.Fatalf("region %d has no name", r)
		}
	}
}

func TestAttachIdempotent(t *testing.T) {
	n := New(Options{})
	defer n.Close()
	a1 := n.Attach(types.ReplicaNode(0, 0), Oregon)
	a2 := n.Attach(types.ReplicaNode(0, 0), Tokyo)
	if a1 != a2 {
		t.Fatal("re-attach created a second endpoint")
	}
	if n.RegionOf(a1.ID()) != Oregon {
		t.Fatal("re-attach moved the node's region")
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := New(Options{Latency: FixedLatency{10 * time.Millisecond}})
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	b := n.Attach(types.ReplicaNode(0, 1), Oregon)
	a.Send(b.ID(), msg())
	n.Close()
	if got := recv(t, b, 50*time.Millisecond); got != nil {
		t.Fatal("delivery after Close")
	}
}

func TestMulticast(t *testing.T) {
	n := New(Options{Latency: FixedLatency{0}})
	defer n.Close()
	a := n.Attach(types.ReplicaNode(0, 0), Oregon)
	var tos []types.NodeID
	eps := make([]*Endpoint, 3)
	for i := 0; i < 3; i++ {
		eps[i] = n.Attach(types.ReplicaNode(0, i+1), Oregon)
		tos = append(tos, eps[i].ID())
	}
	a.Multicast(tos, msg())
	for i, ep := range eps {
		if recv(t, ep, time.Second) == nil {
			t.Fatalf("multicast recipient %d missed", i)
		}
	}
}
