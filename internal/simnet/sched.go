package simnet

import (
	"container/heap"
	"time"

	"ringbft/internal/types"
)

// slack is how early a flight may arrive. A flight due within slack of its
// send, on a link with nothing queued, is delivered inside Send rather than
// by the scheduler. At WANLatency{Scale: 0.05} an intra-region hop is
// 12.5 µs, so intra-shard traffic never waits for a wake-up.
const slack = 50 * time.Microsecond

// flight is one in-flight message on a link.
type flight struct {
	m   *types.Message
	at  time.Time
	dst *Endpoint
}

// link is one (from,to) link's FIFO of timed flights. Flights leave in send
// order, so a link never reorders (TCP-like semantics).
type link struct {
	q    []flight // q[head:] are queued, in send order
	head int
	idx  int // position in scheduler.due; -1 while nothing is queued
}

func (l *link) next() *flight { return &l.q[l.head] }

func (l *link) empty() bool { return l.head == len(l.q) }

func (l *link) push(f flight) {
	// Reuse the backing array once the delivered prefix is at least half
	// of it, so a link that never drains does not grow without bound.
	if l.head > 0 && len(l.q) == cap(l.q) && 2*l.head >= len(l.q) {
		k := copy(l.q, l.q[l.head:])
		clear(l.q[k:])
		l.q, l.head = l.q[:k], 0
	}
	l.q = append(l.q, f)
}

func (l *link) pop() flight {
	f := l.q[l.head]
	l.q[l.head] = flight{}
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return f
}

// linkHeap orders links by the deadline of their head flight.
type linkHeap []*link

func (h linkHeap) Len() int           { return len(h) }
func (h linkHeap) Less(i, j int) bool { return h[i].next().at.Before(h[j].next().at) }
func (h linkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *linkHeap) Push(x any) {
	l := x.(*link)
	l.idx = len(*h)
	*h = append(*h, l)
}
func (h *linkHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	old[len(old)-1] = nil
	*h, l.idx = old[:len(old)-1], -1
	return l
}

// scheduler delivers every timed flight of one Network at its model time.
// All fields are guarded by Network.linkMu. The goroutine and the clock are
// started by the first timed flight; a network that never has one costs
// nothing.
type scheduler struct {
	due     linkHeap
	clock   wakeClock     // nil until the first timed flight
	armedAt time.Time     // the clock's deadline; zero while it is disarmed
	exited  chan struct{} // closed when the goroutine returns
}

// wakeClock is the scheduler's one timer. arm makes it fire once, d from
// now, replacing any earlier setting; wait blocks until it fires and
// reports false once the clock is closed.
type wakeClock interface {
	arm(d time.Duration)
	wait() bool
	close()
}

// enqueue queues f on l and, if f is now the earliest deadline, moves the
// wake earlier. Caller holds linkMu and has checked the network is open.
func (n *Network) enqueue(l *link, f flight, now time.Time) {
	s := &n.sched
	l.push(f)
	if l.idx >= 0 {
		return // l is already keyed by an earlier flight
	}
	heap.Push(&s.due, l)
	if s.clock == nil {
		s.clock, s.exited = newWakeClock(), make(chan struct{})
		go n.run(s.clock, s.exited)
	}
	if s.armedAt.IsZero() || f.at.Before(s.armedAt) {
		s.armedAt = f.at
		s.clock.arm(f.at.Sub(now))
	}
}

// run is the scheduler goroutine: each wake delivers every head flight
// whose time has come, then re-arms the clock for the earliest one left.
// It never delivers a flight before its time.
func (n *Network) run(c wakeClock, exited chan struct{}) {
	defer close(exited)
	s := &n.sched
	for c.wait() {
		n.linkMu.Lock()
		if n.closed.Load() {
			n.linkMu.Unlock()
			return
		}
		now := now()
		s.armedAt = time.Time{}
		for len(s.due) > 0 {
			l := s.due[0]
			if at := l.next().at; at.After(now) {
				s.armedAt = at
				c.arm(at.Sub(now))
				break
			}
			f := l.pop()
			if l.empty() {
				heap.Pop(&s.due)
			} else {
				heap.Fix(&s.due, 0)
			}
			n.deliver(f)
		}
		n.linkMu.Unlock()
	}
}

// stop closes the clock and waits for the goroutine to return. The network
// must already be closed, so nothing arms the clock again.
func (s *scheduler) stop() {
	if s.clock != nil {
		s.clock.close()
		<-s.exited
	}
}

// runtimeClock is the portable wakeClock: one runtime timer. An idle Go
// process waits for its timers in the netpoller, which on Linux sleeps in
// whole milliseconds, so a wake may come up to ~1 ms late.
type runtimeClock struct {
	t      *time.Timer
	closed chan struct{}
}

func newRuntimeClock() *runtimeClock {
	//ringbft:ignore wallclock the real-time scheduler's one wake timer; seeded loss sampling is unaffected
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &runtimeClock{t: t, closed: make(chan struct{})}
}

func (c *runtimeClock) arm(d time.Duration) { c.t.Reset(d) }

func (c *runtimeClock) wait() bool {
	select {
	case <-c.t.C:
		return true
	case <-c.closed:
		return false
	}
}

func (c *runtimeClock) close() {
	c.t.Stop()
	close(c.closed)
}
