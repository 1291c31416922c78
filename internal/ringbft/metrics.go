package ringbft

import (
	"ringbft/internal/host"
	"ringbft/internal/metrics"
)

// ringMetrics are the instruments only the ring layer counts, made through
// the host's sink (ringbft_<name> series with a registry, private
// otherwise); everything every host counts lives in host.Obs itself.
type ringMetrics struct {
	execErrors   *metrics.Counter
	remoteViews  *metrics.Counter
	certVerifies *metrics.Counter

	lockKeys *metrics.Gauge
	// forwardQuorum is the ring-hop latency: first same-lane Forward copy
	// to f+1 acceptance.
	forwardQuorum *metrics.Histogram
}

func newRingMetrics(o *host.Obs) ringMetrics {
	return ringMetrics{
		execErrors:    o.Counter("exec_errors_total"),
		remoteViews:   o.Counter("remote_views_total"),
		certVerifies:  o.Counter("cert_verifications_total"),
		lockKeys:      o.Gauge("lock_table_keys"),
		forwardQuorum: o.Histogram("forward_quorum_seconds"),
	}
}
