package tcpnet

import (
	"testing"
	"time"

	"ringbft/internal/types"
)

// BenchmarkTransportSend measures the enqueue path of Send — the cost the
// replica event loop pays per outbound message. The contract is that this
// stays nanoseconds-scale regardless of peer health, because the event loop
// calls it under timers.
//
// connected: the peer accepts and drains, so frames flow end to end.
// unreachable: every dial is refused; Send degrades to enqueue-or-drop.
// self: loopback delivery straight into the local inbox.
func BenchmarkTransportSend(b *testing.B) {
	a, p := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	msg := &types.Message{Type: types.MsgPrepare, From: a, Seq: 1}

	b.Run("connected", func(b *testing.B) {
		tp, err := New(p, "127.0.0.1:0", nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer tp.Close()
		go func() { // drain so the inbox never overflows
			for range tp.Inbox() {
			}
		}()
		ta, err := New(a, "127.0.0.1:0", map[types.NodeID]string{p: tp.Addr()}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer ta.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ta.Send(p, msg)
		}
	})

	b.Run("unreachable", func(b *testing.B) {
		ta, err := New(a, "127.0.0.1:0", map[types.NodeID]string{p: deadAddr(b)},
			Options{OutboxDepth: 1024, RedialMin: 50 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer ta.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ta.Send(p, msg)
		}
	})

	b.Run("self", func(b *testing.B) {
		ta, err := New(a, "127.0.0.1:0", nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer ta.Close()
		go func() {
			for range ta.Inbox() {
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ta.Send(a, msg)
		}
	})
}
