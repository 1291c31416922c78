package tcpnet

import (
	"sync/atomic"

	"ringbft/internal/metrics"
)

// counters is the transport's internal atomic counter set; Stats() snapshots
// it. Every loss path has a counter: this transport's whole design is
// "degrade to a counted drop instead of a stall", so the counts are the
// operator's only window into what was lost.
type counters struct {
	enqueued    atomic.Int64
	outboxDrops atomic.Int64
	selfDrops   atomic.Int64
	inboxDrops  atomic.Int64
	unknownPeer atomic.Int64
	encodeDrops atomic.Int64
	wireDrops   atomic.Int64

	framesSent atomic.Int64
	bytesSent  atomic.Int64

	dials      atomic.Int64
	dialErrors atomic.Int64
	redials    atomic.Int64

	writeErrors   atomic.Int64
	badFrames     atomic.Int64
	acceptRetries atomic.Int64
}

// Stats is a point-in-time snapshot of transport counters.
type Stats struct {
	// Enqueued counts messages accepted into a peer outbox (not yet
	// necessarily written); FramesSent/BytesSent count what reached a
	// connection's buffered writer.
	Enqueued   int64
	FramesSent int64
	BytesSent  int64

	// OutboxDrops: Send found the peer's outbox full (peer down or slower
	// than the send rate). SelfDrops: a self-send found the local inbox
	// full. InboxDrops: an inbound frame found the inbox full. UnknownPeer:
	// Send had no address for the destination. EncodeDrops: the writer
	// refused a message whose encoding exceeded the maximum frame size
	// (which the receiver would have disconnected on anyway).
	// WireDrops: frames lost with a torn-down connection — the frame a
	// failed write was carrying plus everything buffered but unflushed
	// (frames only count as FramesSent once a flush succeeds).
	OutboxDrops int64
	SelfDrops   int64
	InboxDrops  int64
	UnknownPeer int64
	EncodeDrops int64
	WireDrops   int64

	// Dials counts TCP connect attempts; DialErrors the failed ones;
	// Redials the attempts made after a peer had already been connected
	// once (i.e. reconnects after a teardown or peer restart).
	Dials      int64
	DialErrors int64
	Redials    int64

	// WriteErrors counts write/flush failures — deadline expiry on a
	// stalled TCP window, or a reset — each of which tears the connection
	// down for redial. BadFrames counts inbound frames (zero-length,
	// oversized, undecodable) that disconnected a sender. AcceptRetries
	// counts transient listener errors retried with backoff.
	WriteErrors   int64
	BadFrames     int64
	AcceptRetries int64
}

// Dropped returns the total messages this transport lost locally: outbox,
// inbox, and self-send overflow, writer-side encode refusals, sends to
// peers with no known address, and frames that died with a torn-down
// connection.
func (s Stats) Dropped() int64 {
	return s.OutboxDrops + s.InboxDrops + s.SelfDrops + s.EncodeDrops + s.UnknownPeer + s.WireDrops
}

// Stats returns a snapshot of the transport's counters. Safe to call
// concurrently with sends and from the shutdown path.
func (t *Transport) Stats() Stats {
	return Stats{
		Enqueued:      t.c.enqueued.Load(),
		FramesSent:    t.c.framesSent.Load(),
		BytesSent:     t.c.bytesSent.Load(),
		OutboxDrops:   t.c.outboxDrops.Load(),
		SelfDrops:     t.c.selfDrops.Load(),
		InboxDrops:    t.c.inboxDrops.Load(),
		UnknownPeer:   t.c.unknownPeer.Load(),
		EncodeDrops:   t.c.encodeDrops.Load(),
		WireDrops:     t.c.wireDrops.Load(),
		Dials:         t.c.dials.Load(),
		DialErrors:    t.c.dialErrors.Load(),
		Redials:       t.c.redials.Load(),
		WriteErrors:   t.c.writeErrors.Load(),
		BadFrames:     t.c.badFrames.Load(),
		AcceptRetries: t.c.acceptRetries.Load(),
	}
}

// RegisterMetrics exposes the transport counters on reg as read-on-scrape
// series. The transport keeps sole ownership of the atomics — the registry
// reads them at exposition time — so there is no double counting and no
// extra work on the send path.
func (t *Transport) RegisterMetrics(reg *metrics.Registry) {
	counters := []struct {
		name string
		v    *atomic.Int64
	}{
		{"tcpnet_enqueued_total", &t.c.enqueued},
		{"tcpnet_frames_sent_total", &t.c.framesSent},
		{"tcpnet_bytes_sent_total", &t.c.bytesSent},
		{"tcpnet_outbox_drops_total", &t.c.outboxDrops},
		{"tcpnet_self_drops_total", &t.c.selfDrops},
		{"tcpnet_inbox_drops_total", &t.c.inboxDrops},
		{"tcpnet_unknown_peer_total", &t.c.unknownPeer},
		{"tcpnet_encode_drops_total", &t.c.encodeDrops},
		{"tcpnet_wire_drops_total", &t.c.wireDrops},
		{"tcpnet_dials_total", &t.c.dials},
		{"tcpnet_dial_errors_total", &t.c.dialErrors},
		{"tcpnet_redials_total", &t.c.redials},
		{"tcpnet_write_errors_total", &t.c.writeErrors},
		{"tcpnet_bad_frames_total", &t.c.badFrames},
		{"tcpnet_accept_retries_total", &t.c.acceptRetries},
	}
	for _, c := range counters {
		v := c.v
		reg.CounterFunc(c.name, func() float64 { return float64(v.Load()) })
	}
}
