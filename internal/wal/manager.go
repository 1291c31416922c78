package wal

import (
	"time"

	"ringbft/internal/types"
)

// ManagerOptions configures one replica's durability manager.
type ManagerOptions struct {
	FS  FS     // nil selects OSFS
	Dir string // per-replica data directory

	SegmentSize   int64         // WAL segment rotation size (default 4 MiB)
	FsyncInterval time.Duration // group-commit interval (0 = sync every append)
	Clock         func() time.Time
	// Observer receives WAL telemetry; it survives wipe and reset, which
	// reopen the underlying log.
	Observer Observer
}

// Recovered is what a restarted replica resumes from: the latest valid
// snapshot (nil when none) plus the WAL records appended after it.
type Recovered struct {
	Snap *Snapshot
	Tail []Record
}

// Empty reports whether recovery found nothing on disk (a fresh or wiped
// replica).
func (r *Recovered) Empty() bool { return r == nil || (r.Snap == nil && len(r.Tail) == 0) }

// Manager owns one replica's durable state: the segmented WAL and the
// snapshot store, in one directory. Single-writer, like the WAL.
type Manager struct {
	fs   FS
	dir  string
	opts ManagerOptions
	wal  *WAL
}

// OpenManager opens (creating if needed) the durability directory, loads
// the latest valid snapshot, and replays the WAL tail past it.
func OpenManager(opts ManagerOptions) (*Manager, *Recovered, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	m := &Manager{fs: opts.FS, dir: opts.Dir, opts: opts}
	if err := m.fs.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	snap, err := LoadLatest(m.fs, m.snapDir())
	if err != nil && err != ErrNoSnapshot {
		return nil, nil, err
	}
	w, records, err := m.openWAL()
	if err != nil {
		return nil, nil, err
	}
	m.wal = w
	rec := &Recovered{Snap: snap}
	for i := range records {
		if snap == nil || records[i].LSN > snap.WalLSN {
			rec.Tail = append(rec.Tail, records[i])
		}
	}
	// Continuity check: the tail must extend the snapshot without a gap.
	// A gap means segments were garbage-collected against a newer snapshot
	// that no longer loads (e.g. the newest generation was torn and
	// LoadLatest fell back) — replaying across it would silently install a
	// store missing a whole window of writes. The snapshot itself is still
	// a complete, checksummed cut, so recovery keeps it and discards the
	// orphaned tail: the replica resumes stale and catches up through peer
	// state transfer. The orphaned segments are wiped and the snapshot is
	// re-stamped at WAL position 0 so the restarted log replays cleanly.
	if len(rec.Tail) > 0 {
		covered := uint64(0)
		if snap != nil {
			covered = snap.WalLSN
		}
		if rec.Tail[0].LSN > covered+1 {
			if err := m.wipeWAL(); err != nil {
				return nil, nil, err
			}
			rec.Tail = nil
			if snap != nil {
				snap.WalLSN = 0
				if err := WriteSnapshot(m.fs, m.snapDir(), snap); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return m, rec, nil
}

// wipeWAL deletes every WAL segment and reopens the log empty.
func (m *Manager) wipeWAL() error {
	if err := m.wal.Close(); err != nil {
		return err
	}
	if names, err := m.fs.ReadDir(m.walDir()); err == nil {
		for _, n := range names {
			if err := m.fs.Remove(Join(m.walDir(), n)); err != nil {
				return err
			}
		}
	}
	w, _, err := m.openWAL()
	if err != nil {
		return err
	}
	m.wal = w
	return nil
}

// openWAL opens the log under the manager's options, replaying what it
// holds.
func (m *Manager) openWAL() (*WAL, []Record, error) {
	return Open(m.fs, m.walDir(), Options{
		SegmentSize:   m.opts.SegmentSize,
		FsyncInterval: m.opts.FsyncInterval,
		Clock:         m.opts.Clock,
		Observer:      m.opts.Observer,
	})
}

// SetObserver installs the telemetry observer after construction (hosts
// receive a pre-built Manager and wire metrics later). It persists across
// wipe and Reset.
func (m *Manager) SetObserver(o Observer) {
	m.opts.Observer = o
	m.wal.SetObserver(o)
}

func (m *Manager) walDir() string  { return Join(m.dir, "wal") }
func (m *Manager) snapDir() string { return Join(m.dir, "snap") }

// LogBlock appends an executed-block record.
func (m *Manager) LogBlock(seq types.SeqNum, primary types.NodeID, batch *types.Batch, results []types.Value) error {
	_, err := m.wal.Append(BlockRecord(seq, primary, batch, results))
	return err
}

// LogProgress appends a consensus-watermark record.
func (m *Manager) LogProgress(kmax types.SeqNum, prefix types.Digest, lastCheckpoint types.SeqNum, batchDigest types.Digest, view types.View) error {
	_, err := m.wal.Append(ProgressRecord(kmax, prefix, lastCheckpoint, batchDigest, view))
	return err
}

// MaybeSync performs the group-commit fsync when the interval elapsed.
func (m *Manager) MaybeSync(now time.Time) error { return m.wal.MaybeSync(now) }

// Sync forces an fsync barrier.
func (m *Manager) Sync() error { return m.wal.Sync() }

// SaveSnapshot makes s durable and garbage-collects the WAL segments it
// covers. The WAL is synced first so s.WalLSN (stamped here: the last LSN
// appended) never exceeds what is on disk.
func (m *Manager) SaveSnapshot(s *Snapshot) error {
	if err := m.wal.Sync(); err != nil {
		return err
	}
	s.WalLSN = m.wal.NextLSN() - 1
	if err := WriteSnapshot(m.fs, m.snapDir(), s); err != nil {
		return err
	}
	return m.wal.GC(m.wal.NextLSN())
}

// Reset wipes the WAL and persists s as the sole durable state — used after
// a peer state transfer installs a state unrelated to the local log.
func (m *Manager) Reset(s *Snapshot) error {
	if err := m.wipeWAL(); err != nil {
		return err
	}
	s.WalLSN = 0
	return WriteSnapshot(m.fs, m.snapDir(), s)
}

// WAL exposes the underlying log (stats and tests).
func (m *Manager) WAL() *WAL { return m.wal }

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// Close syncs and closes the WAL.
func (m *Manager) Close() error { return m.wal.Close() }
