package tcpnet

import (
	"encoding/binary"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"ringbft/internal/leakcheck"
	"ringbft/internal/types"
)

// assertSendBound enforces the non-blocking contract on a series of
// measured Send calls: essentially every call returns well under 1ms, with
// an allowance of a few outliers for OS preemption of the measuring
// goroutine (this box is one vCPU and the race detector multiplies every
// pause) — but even a preempted call must stay orders of magnitude under
// the old synchronous transport's 3s dial stall.
func assertSendBound(t *testing.T, durs []time.Duration) {
	t.Helper()
	if len(durs) == 0 {
		t.Fatal("no sends measured")
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	const outliers = 5
	bound := durs[len(durs)-1]
	if len(durs) > outliers {
		bound = durs[len(durs)-1-outliers]
	}
	if bound >= time.Millisecond {
		t.Fatalf("Send took %v beyond the %d-outlier allowance (must be < 1ms; worst %v over %d calls)",
			bound, outliers, durs[len(durs)-1], len(durs))
	}
	if worst := durs[len(durs)-1]; worst >= 250*time.Millisecond {
		t.Fatalf("Send took %v — scheduler noise cannot explain that; the call blocked", worst)
	}
}

// testOptions keeps redial/backoff cadence fast enough for test deadlines.
func testOptions() Options {
	return Options{
		DialTimeout:  time.Second,
		WriteTimeout: time.Second,
		RedialMin:    10 * time.Millisecond,
		RedialMax:    100 * time.Millisecond,
	}
}

func pair(t *testing.T) (*Transport, *Transport, types.NodeID, types.NodeID) {
	t.Helper()
	// Registered before the Close cleanups below, so it runs after them
	// (LIFO): every accept loop, reader, and writer must be gone once both
	// transports have closed.
	leakcheck.Check(t)
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	ta, err := New(a, "127.0.0.1:0", nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(b, "127.0.0.1:0", nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[types.NodeID]string{a: ta.Addr(), b: tb.Addr()}
	ta.addrs, tb.addrs = addrs, addrs
	t.Cleanup(ta.Close)
	t.Cleanup(tb.Close)
	return ta, tb, a, b
}

func waitMsg(t *testing.T, tr *Transport) *types.Message {
	t.Helper()
	select {
	case m := <-tr.Inbox():
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no message within 5s")
		return nil
	}
}

// deadAddr returns a loopback address that nothing listens on: every dial
// to it fails fast with connection refused.
func deadAddr(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestSendReceive(t *testing.T) {
	ta, tb, a, b := pair(t)
	m := &types.Message{
		Type: types.MsgPrePrepare, From: a, Seq: 7,
		Batch: &types.Batch{
			Txns:     []types.Txn{{ID: types.TxnID{Client: 1, Seq: 1}, Reads: []types.Key{3}, Writes: []types.Key{3}, Delta: 9}},
			Involved: []types.ShardID{0},
		},
	}
	m.Digest = m.Batch.Digest()
	ta.Send(b, m)
	got := waitMsg(t, tb)
	if got.Type != m.Type || got.Seq != 7 || got.From != a {
		t.Fatalf("header mangled: %+v", got)
	}
	if got.Batch == nil || got.Batch.Digest() != m.Digest {
		t.Fatal("batch did not survive the wire")
	}
}

func TestManyFramesInOrder(t *testing.T) {
	ta, tb, a, b := pair(t)
	const k = 500
	for i := 0; i < k; i++ {
		ta.Send(b, &types.Message{Type: types.MsgPrepare, From: a, Seq: types.SeqNum(i)})
	}
	for i := 0; i < k; i++ {
		m := waitMsg(t, tb)
		if m.Seq != types.SeqNum(i) {
			t.Fatalf("frame %d arrived as seq %d (TCP must preserve order)", i, m.Seq)
		}
	}
	st := ta.Stats()
	if st.Enqueued != k || st.OutboxDrops != 0 {
		t.Fatalf("expected %d enqueued with no drops, got %+v", k, st)
	}
}

func TestLoopbackSend(t *testing.T) {
	ta, _, a, _ := pair(t)
	ta.Send(a, &types.Message{Type: types.MsgCommit, From: a})
	if m := waitMsg(t, ta); m.Type != types.MsgCommit {
		t.Fatal("loopback lost")
	}
}

func TestSendToUnknownPeerNoop(t *testing.T) {
	ta, _, a, _ := pair(t)
	ta.Send(types.ReplicaNode(9, 9), &types.Message{Type: types.MsgCommit, From: a}) // must not panic
	if st := ta.Stats(); st.UnknownPeer != 1 {
		t.Fatalf("unknown-peer send not counted: %+v", st)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	ta, tb, a, b := pair(t)
	ta.Send(b, &types.Message{Type: types.MsgPrepare, From: a, Seq: 1})
	waitMsg(t, tb)
	// Restart b on the same address.
	addr := tb.Addr()
	tb.Close()
	tb2, err := New(b, addr, ta.addrs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	// Sends may land on the dead cached conn; the writer tears it down and
	// redials with backoff while later sends (as a timer would produce)
	// flow through the fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ta.Send(b, &types.Message{Type: types.MsgPrepare, From: a, Seq: 2})
		select {
		case m := <-tb2.Inbox():
			if m.Seq == 2 {
				if st := ta.Stats(); st.Redials == 0 {
					t.Fatalf("reconnect not counted as a redial: %+v", st)
				}
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("transport never reconnected")
}

// TestSendNonBlockingUnreachablePeer is the headline-bug regression: with
// the peer's address unreachable (every dial refused), Send must stay a
// sub-millisecond enqueue-or-drop — the old transport dialed synchronously
// with a 3s timeout on the caller, stalling the replica event loop.
func TestSendNonBlockingUnreachablePeer(t *testing.T) {
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	opt := testOptions()
	opt.OutboxDepth = 64
	ta, err := New(a, "127.0.0.1:0", map[types.NodeID]string{b: deadAddr(t)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	m := &types.Message{Type: types.MsgPrepare, From: a, Seq: 1}
	const k = 5000
	durs := make([]time.Duration, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		ta.Send(b, m)
		durs[i] = time.Since(t0)
	}
	assertSendBound(t, durs)
	st := ta.Stats()
	if st.Enqueued+st.OutboxDrops != k {
		t.Fatalf("sends unaccounted for: %+v", st)
	}
	if st.OutboxDrops == 0 {
		t.Fatalf("expected outbox overflow drops against an unreachable peer: %+v", st)
	}
	// The writer must end up in the dial-backoff loop, off the Send path.
	deadline := time.Now().Add(5 * time.Second)
	for ta.Stats().DialErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("writer never attempted the dial: %+v", ta.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendNonBlockingStalledReader: a peer that accepts connections but
// never reads wedges the TCP window; Send must stay non-blocking while the
// writer trips its write deadline and tears the connection down.
func TestSendNonBlockingStalledReader(t *testing.T) {
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	// A sink that accepts and holds connections without ever reading.
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	opt := testOptions()
	opt.OutboxDepth = 16
	opt.WriteTimeout = 150 * time.Millisecond
	ta, err := New(a, "127.0.0.1:0", map[types.NodeID]string{b: sink.Addr().String()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	// Large frames fill the buffered writer and both socket buffers fast.
	big := &types.Message{Type: types.MsgPrePrepare, From: a, Batch: &types.Batch{
		Txns: make([]types.Txn, 4096),
	}}
	var durs []time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		ta.Send(b, big)
		durs = append(durs, time.Since(t0))
		if ta.Stats().WriteErrors > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	assertSendBound(t, durs)
	st := ta.Stats()
	if st.WriteErrors == 0 {
		t.Fatalf("stalled TCP window never tripped the write deadline: %+v", st)
	}
}

// frame prefixes body with its 4-byte big-endian length.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestBadFramesDisconnect: zero-length and oversized frames, and
// well-framed bodies that types.DecodeMessage rejects, must disconnect the
// sender without poisoning the inbox.
func TestBadFramesDisconnect(t *testing.T) {
	a := types.ReplicaNode(0, 0)
	ta, err := New(a, "127.0.0.1:0", nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	good := types.AppendMessage(nil, &types.Message{Type: types.MsgCommit, From: a})
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[0]++
	// The last 16 bytes are the (zero) MAC and Sig lengths; a Sig length of
	// 2^56 is a count no frame could hold.
	hugeCount := append([]byte(nil), good...)
	hugeCount[len(hugeCount)-8] = 1
	frames := [][]byte{
		{0, 0, 0, 0},             // zero-length
		{0xff, 0xff, 0xff, 0xff}, // oversized (4GiB-1 > maxFrame)
		frame(wrongVersion),
		frame(append(append([]byte(nil), good...), 0)), // trailing byte
		frame(hugeCount),
	}
	for i, f := range frames {
		c, err := net.Dial("tcp", ta.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// The transport must hang up on us: a read observes EOF/reset
		// rather than an open stream happy to take the next frame.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if _, err := c.Read(one[:]); err == nil {
			t.Fatalf("frame %d: transport kept the connection open", i)
		}
		c.Close()
	}
	if st := ta.Stats(); st.BadFrames != int64(len(frames)) {
		t.Fatalf("expected %d bad frames counted, got %+v", len(frames), st)
	}
	select {
	case m := <-ta.Inbox():
		t.Fatalf("bad frame reached the inbox: %+v", m)
	default:
	}
	// The transport still works for honest peers afterwards.
	b := types.ReplicaNode(0, 1)
	tb, err := New(b, "127.0.0.1:0", map[types.NodeID]string{a: ta.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Send(a, &types.Message{Type: types.MsgCommit, From: b})
	if m := waitMsg(t, ta); m.Type != types.MsgCommit {
		t.Fatal("transport wedged after bad frames")
	}
}

// TestStalledFrameHoldsNoMemory: a peer that claims a maxFrame body, sends
// ten bytes of it and goes quiet must cost the receiver a small read buffer,
// not the 64 MiB its header announced — and must not hold up Close.
func TestStalledFrameHoldsNoMemory(t *testing.T) {
	ta, err := New(types.ReplicaNode(0, 0), "127.0.0.1:0", nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	c, err := net.Dial("tcp", ta.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stalled := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, 10)...)
	if _, err := c.Write(stalled); err != nil {
		t.Fatal(err)
	}
	// Nothing signals "the reader is now blocked mid-body"; give it ample
	// time to have read the header and sized its buffer.
	time.Sleep(200 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a stalled %d-byte frame claim made the process allocate %d bytes", maxFrame, grew)
	}

	done := make(chan struct{})
	go func() { ta.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a reader waiting on a stalled frame")
	}
}

// TestSelfSendOverflowCounted: a full inbox makes self-sends drop — the
// drop must be visible in the stats rather than silent.
func TestSelfSendOverflowCounted(t *testing.T) {
	a := types.ReplicaNode(0, 0)
	ta, err := New(a, "127.0.0.1:0", nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	m := &types.Message{Type: types.MsgCommit, From: a}
	n := cap(ta.inbox) + 10
	for i := 0; i < n; i++ {
		ta.Send(a, m)
	}
	st := ta.Stats()
	if st.SelfDrops != int64(n-cap(ta.inbox)) {
		t.Fatalf("expected %d self-send drops, got %+v", n-cap(ta.inbox), st)
	}
}

// TestCloseUnblocksPromptly: Close must tear down a writer mid-backoff and
// mid-write without waiting out timeouts.
func TestCloseUnblocksPromptly(t *testing.T) {
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	opt := testOptions()
	opt.RedialMin, opt.RedialMax = 2*time.Second, 2*time.Second
	ta, err := New(a, "127.0.0.1:0", map[types.NodeID]string{b: deadAddr(t)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	ta.Send(b, &types.Message{Type: types.MsgPrepare, From: a})
	time.Sleep(20 * time.Millisecond) // let the writer enter dial/backoff
	done := make(chan struct{})
	go func() { ta.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close blocked behind a dialing writer")
	}
}
