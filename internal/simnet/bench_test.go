package simnet

import (
	"testing"
	"time"

	"ringbft/internal/types"
)

// BenchmarkSimnetDeliver is the fabric's cost per message: one Send and the
// matching receive, on an idle network. "inline" is a hop within slack (an
// intra-region hop at the benchmark's WAN scale); "timed" is a 100 µs hop
// through the scheduler, so its ns/op is the delay plus the wake-up latency
// and its allocs/op the scheduling cost.
func BenchmarkSimnetDeliver(b *testing.B) {
	for _, c := range []struct {
		name  string
		delay time.Duration
	}{{"inline", 0}, {"timed", 100 * time.Microsecond}} {
		b.Run(c.name, func(b *testing.B) {
			n := New(Options{Latency: FixedLatency{c.delay}})
			defer n.Close()
			from := n.Attach(types.ReplicaNode(0, 0), Oregon)
			to := n.Attach(types.ReplicaNode(0, 1), Oregon)
			m := msg()
			b.ReportAllocs()
			for b.Loop() {
				from.Send(to.ID(), m)
				<-to.Inbox()
			}
		})
	}
}
