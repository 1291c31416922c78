package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"ringbft/internal/types"
)

// peer is one outbound pipeline: a bounded queue drained by a dedicated
// writer goroutine that owns the connection to this peer.
type peer struct {
	id   types.NodeID
	addr string
	out  chan *types.Message
	// everConnected marks that at least one dial succeeded; later dials are
	// redials. Touched only by this peer's writer goroutine.
	everConnected bool
}

// connWriter wraps one established connection with buffered, deadline-bound
// framing. The scratch buffer (kept at length 0) is reused across frames, so
// a steady send rate settles into zero allocations per frame.
// pendingFrames/pendingBytes hold frames accepted into the buffered writer
// but not yet flushed: they count as sent only once a flush succeeds, and
// as wire drops when the connection tears down first — so "frames sent"
// never includes bytes that died in a buffer.
type connWriter struct {
	nc      net.Conn
	bw      *bufio.Writer
	scratch []byte

	pendingFrames int64
	pendingBytes  int64
}

// writeFrame encodes m as one frame — 4-byte big-endian length, then the
// types.AppendMessage encoding — and writes header+body with a single Write
// call under deadline. Every frame is self-contained (the codec keeps no
// per-connection state), so a frame means the same on a fresh connection
// after a redial. A body over maxFrame is refused here, on the sender: the
// receiver would disconnect on its header anyway, taking every coalesced
// frame behind it down too.
func (w *connWriter) writeFrame(m *types.Message, timeout time.Duration) (int, error) {
	frame := types.AppendMessage(append(w.scratch, 0, 0, 0, 0), m) // length placeholder
	w.scratch = frame[:0]
	if len(frame)-4 > maxFrame {
		return 0, errEncode{fmt.Errorf("frame body %d bytes exceeds maxFrame %d", len(frame)-4, maxFrame)}
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	w.nc.SetWriteDeadline(time.Now().Add(timeout))
	return w.bw.Write(frame)
}

func (w *connWriter) flush(timeout time.Duration) error {
	w.nc.SetWriteDeadline(time.Now().Add(timeout))
	return w.bw.Flush()
}

// errEncode marks a message too large to frame: the message is at fault,
// not the connection, so the writer drops it without a teardown.
type errEncode struct{ err error }

func (e errEncode) Error() string { return "tcpnet: encode frame: " + e.err.Error() }

// writer drains p.out for the life of the transport. Connection management
// lives entirely here — dial with exponential-backoff redial, coalesced
// buffered writes, teardown on deadline or reset — so the Send path stays a
// non-blocking enqueue.
func (t *Transport) writer(p *peer) {
	defer t.wg.Done()
	var cw *connWriter
	teardown := func() {
		if cw != nil {
			// Unflushed frames die with the connection: real loss, counted.
			t.c.wireDrops.Add(cw.pendingFrames)
			t.untrack(cw.nc)
			cw = nil
		}
	}
	defer teardown()
	backoff := t.opt.RedialMin
	for {
		// Block until there is work (or shutdown).
		var m *types.Message
		select {
		case m = <-p.out:
		case <-t.closing:
			return
		}
		for m != nil {
			if cw == nil {
				cw = t.dialPeer(p, &backoff)
				if cw == nil {
					return // transport closing
				}
			}
			n, err := cw.writeFrame(m, t.opt.WriteTimeout)
			switch err.(type) {
			case nil:
				cw.pendingFrames++
				cw.pendingBytes += int64(n)
			case errEncode:
				// Oversized message: drop and count it, keep the connection.
				t.c.encodeDrops.Add(1)
			default:
				// Connection-level failure (deadline, reset): tear down and
				// drop the frame — the protocol's timers retransmit intent,
				// not bytes. The next message redials, after a paced wait:
				// a peer that accepts and instantly resets would otherwise
				// drive an unthrottled dial/teardown churn loop (dialPeer
				// only sleeps on dial *errors*).
				t.c.writeErrors.Add(1)
				t.c.wireDrops.Add(1) // the frame that just failed
				teardown()
				if !t.pause(&backoff) {
					return
				}
			}
			// Coalesce: keep writing while the outbox has more, flush the
			// buffered frames only once it drains.
			select {
			case m = <-p.out:
				continue
			case <-t.closing:
				t.settleFlush(cw)
				return
			default:
				m = nil
			}
			if cw != nil && !t.settleFlush(cw) {
				t.c.writeErrors.Add(1)
				teardown()
				if !t.pause(&backoff) {
					return
				}
			} else if cw != nil {
				// Bytes actually reached the socket: the link is healthy,
				// so redial pacing starts over.
				backoff = t.opt.RedialMin
			}
		}
	}
}

// settleFlush pushes cw's buffered frames to the socket and settles the
// sent counters: pending frames become FramesSent/BytesSent only on
// success (a failed flush leaves them pending, and the caller's teardown
// converts them to WireDrops). A nil cw trivially succeeds.
func (t *Transport) settleFlush(cw *connWriter) bool {
	if cw == nil {
		return true
	}
	if err := cw.flush(t.opt.WriteTimeout); err != nil {
		return false
	}
	t.c.framesSent.Add(cw.pendingFrames)
	t.c.bytesSent.Add(cw.pendingBytes)
	cw.pendingFrames, cw.pendingBytes = 0, 0
	return true
}

// pause sleeps the current backoff (doubling it toward RedialMax for the
// next failure) and reports false when the transport closed meanwhile.
func (t *Transport) pause(backoff *time.Duration) bool {
	select {
	case <-t.closing:
		return false
	case <-time.After(*backoff):
	}
	if *backoff *= 2; *backoff > t.opt.RedialMax {
		*backoff = t.opt.RedialMax
	}
	return true
}

// dialPeer establishes a connection to p, retrying with exponential backoff
// until it succeeds or the transport closes (returns nil). Send keeps
// enqueueing (and overflow-dropping) while this runs — dialing never
// touches the caller. The peer's address is re-resolved on every attempt so
// a Resolver that learns a new address (node restarted elsewhere, harness
// attach order) takes effect at the next dial. The dial is bound by both
// DialTimeout and transport close, so a blackholed SYN can't hold up Close.
func (t *Transport) dialPeer(p *peer, backoff *time.Duration) *connWriter {
	dialer := net.Dialer{Timeout: t.opt.DialTimeout}
	for {
		select {
		case <-t.closing:
			return nil
		default:
		}
		if addr, ok := t.resolve(p.id); ok {
			p.addr = addr
		}
		t.c.dials.Add(1)
		if p.everConnected {
			t.c.redials.Add(1)
		}
		nc, err := dialer.DialContext(t.dialCtx, "tcp", p.addr)
		if err == nil {
			if !t.track(nc) {
				return nil
			}
			p.everConnected = true
			return &connWriter{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10)}
		}
		t.c.dialErrors.Add(1)
		if !t.pause(backoff) {
			return nil
		}
	}
}
