package types

import "time"

// Config captures the shape of a sharded-replicated deployment and the
// protocol timers. One Config is shared by all replicas of a cluster.
type Config struct {
	Shards           int // z = |𝔖|
	ReplicasPerShard int // n = |ℜS|; fault tolerance requires n >= 3f+1

	// BatchSize is read by no replica: a primary proposes each client
	// request as it arrived, and clients size their requests by their own
	// setting (workload.Config.BatchSize, paper default 100). The harness,
	// the chaos engine and the benchmark still set it to that size.
	BatchSize int

	// PipelineDepth bounds how many proposals a primary keeps in flight
	// (PRE-PREPAREd but not yet committed) across sequence numbers; must be
	// >= 1. Depth 1 is lockstep (one consensus instance at a time, the
	// latency floor); small depths (4–16) overlap PRE-PREPARE/PREPARE/COMMIT
	// across sequences, moving the open-loop saturation knee right while
	// commit-order execution is preserved by the executed-prefix watermark.
	// Every proposal goes through the primary's FIFO queue and this window,
	// one client request per proposal; the window clamps to one slot under
	// transport backpressure (see host.Options.Backpressure).
	PipelineDepth int

	// CheckpointInterval is the number of sequence numbers between
	// checkpoint broadcasts (attack A3: replicas in dark catch up); must be
	// >= 1 — without checkpoints the pbft log window never slides and a
	// shard stops ordering once it fills.
	CheckpointInterval SeqNum

	// DataDir enables the durability subsystem (internal/wal): each replica
	// keeps a segmented write-ahead log and snapshot files under
	// DataDir/s<shard>-r<index>, recovers from them on restart, and serves
	// peer state transfer from its durable checkpoints. Empty = in-memory
	// only (the pre-durability behaviour).
	DataDir string

	// FsyncInterval is the WAL group-commit interval: appends are
	// acknowledged immediately and fsynced together once per interval.
	// 0 fsyncs on every append (safest, slowest). A crash loses at most
	// one interval of unsynced tail, which recovery treats exactly like
	// messages a replica in the dark never received.
	FsyncInterval time.Duration

	// Transport knobs for the TCP deployment (internal/tcpnet). OutboxDepth
	// is the per-peer bounded outbound queue a replica's Send enqueues into
	// (0 = transport default, 4096); DialTimeout bounds one TCP connect
	// attempt and WriteTimeout one write/flush on an established connection
	// (0 = transport defaults, 2s / 5s). Simnet deployments ignore them.
	OutboxDepth  int
	DialTimeout  time.Duration
	WriteTimeout time.Duration

	// Timers (Section 5, "Triggering of Timers"): local < remote < transmit.
	LocalTimeout    time.Duration // view-change trigger
	RemoteTimeout   time.Duration // remote view-change trigger (Fig 6)
	TransmitTimeout time.Duration // Forward retransmission (Section 5.1.1)
}

// F returns f, the maximum number of Byzantine replicas tolerated per shard:
// the largest f with n >= 3f+1.
func (c *Config) F() int { return (c.ReplicasPerShard - 1) / 3 }

// NF returns nf = n - f, the quorum size used for Prepare/Commit
// certificates and view changes.
func (c *Config) NF() int { return c.ReplicasPerShard - c.F() }

// Validate reports a non-nil error when the configuration cannot host a
// Byzantine quorum system or cannot keep ordering (no proposal window, no
// checkpoints to slide the log window).
func (c *Config) Validate() error {
	switch {
	case c.Shards < 1:
		return errConfig("Shards must be >= 1")
	case c.ReplicasPerShard < 4:
		return errConfig("ReplicasPerShard must be >= 4 (n >= 3f+1 with f >= 1)")
	case c.BatchSize < 1:
		return errConfig("BatchSize must be >= 1")
	case c.PipelineDepth < 1:
		return errConfig("PipelineDepth must be >= 1")
	case c.CheckpointInterval < 1:
		return errConfig("CheckpointInterval must be >= 1")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "types: invalid config: " + string(e) }

// DefaultConfig returns a Config with the paper's standard settings scaled
// for in-process simulation: batching enabled, PBFT quorum timers ordered
// local < remote < transmit.
func DefaultConfig(shards, replicasPerShard int) Config {
	return Config{
		Shards:             shards,
		ReplicasPerShard:   replicasPerShard,
		BatchSize:          100,
		PipelineDepth:      8,
		CheckpointInterval: 64,
		LocalTimeout:       250 * time.Millisecond,
		RemoteTimeout:      500 * time.Millisecond,
		TransmitTimeout:    time.Second,
	}
}
