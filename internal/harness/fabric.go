package harness

import (
	"ringbft/internal/simnet"
	"ringbft/internal/types"
)

// Endpoint is one node's attachment to a Fabric.
type Endpoint interface {
	Send(to types.NodeID, m *types.Message)
	Inbox() <-chan *types.Message
}

// Fabric abstracts the message layer a deployment runs on: the simulated
// WAN (simnet, the default — latency models, bandwidth, loss) or real
// loopback TCP sockets (tcpnet, Config.TCP) where the kernel provides the
// only queueing and the transport's writer pipeline is what keeps event
// loops non-blocking. The scenario suite runs unchanged on either.
type Fabric interface {
	Attach(id types.NodeID, region simnet.Region) Endpoint
	// SetCrashed silences a node both ways: its sends are suppressed and
	// inbound messages are dropped before reaching its inbox.
	SetCrashed(id types.NodeID, down bool)
	Close()
	// fillStats copies fabric-level message counters into the run result.
	fillStats(res *Result)
}

// buildFabric selects the fabric for a run.
func buildFabric(cfg Config) Fabric {
	if cfg.TCP {
		return newTCPFabric(cfg)
	}
	return SimFabric{Net: buildNetwork(cfg)}
}

// SimFabric runs a deployment on a *simnet.Network.
type SimFabric struct{ Net *simnet.Network }

func (f SimFabric) Attach(id types.NodeID, r simnet.Region) Endpoint { return f.Net.Attach(id, r) }
func (f SimFabric) SetCrashed(id types.NodeID, down bool)            { f.Net.SetCrashed(id, down) }
func (f SimFabric) Close()                                           { f.Net.Close() }

func (f SimFabric) fillStats(res *Result) {
	res.MsgsSent = f.Net.Stats.MsgsSent.Load()
	res.MsgsDropped = f.Net.Stats.MsgsDropped.Load()
	res.BytesSent = f.Net.Stats.BytesSent.Load()
	res.BytesCross = f.Net.Stats.BytesCross.Load()
}
