package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"

	"ringbft/internal/store"
	"ringbft/internal/types"
)

// snapMagic versions the snapshot format.
var snapMagic = []byte("RBSNAP1\n")

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	// snapKeep is how many snapshot generations are retained; older files
	// are removed after a new snapshot lands (the latest alone suffices,
	// one extra survives a corrupt write of the newest).
	snapKeep = 2
)

// BlockHeader carries the chain-linking fields of the ledger block a pruned
// chain rests on, so the first retained block's PrevHash still verifies.
type BlockHeader struct {
	Seq        types.SeqNum
	Digest     types.Digest
	Primary    types.NodeID
	PrevHash   types.Digest
	MerkleRoot types.Digest
	TxnCount   int
}

// SnapBlock is one retained ledger block: enough to rebuild the block and
// to re-apply its writes without re-collecting cross-shard read sets.
type SnapBlock struct {
	Seq     types.SeqNum
	Primary types.NodeID
	Batch   *types.Batch
	Results []types.Value
}

// Snapshot is a consistent cut of a replica's durable state, positioned in
// the WAL: the key-value table, the retained ledger suffix, and the
// consensus watermarks, all as of WAL position WalLSN. Recovery loads the
// snapshot and replays records with LSN > WalLSN on top.
type Snapshot struct {
	Shard types.ShardID

	// StableSeq/CheckpointDigest anchor the snapshot to the stable PBFT
	// checkpoint that triggered it — the (seq, digest) pair nf replicas
	// signed, which peer state transfer validates against.
	StableSeq        types.SeqNum
	CheckpointDigest types.Digest

	KMax           types.SeqNum
	ExecSeq        types.SeqNum // contiguous executed-prefix watermark
	View           types.View   // PBFT view at the cut
	PrefixDigest   types.Digest
	LastCheckpoint types.SeqNum
	WalLSN         uint64 // highest LSN already reflected in this snapshot

	Base      BlockHeader
	BaseIndex int // absolute chain index of Base (0 = genesis)
	Blocks    []SnapBlock

	Pairs []store.Pair
}

// ErrNoSnapshot is returned by LoadLatest when no valid snapshot exists.
var ErrNoSnapshot = errors.New("wal: no valid snapshot")

func appendHeader(dst []byte, h *BlockHeader) []byte {
	dst = types.AppendU64(dst, uint64(h.Seq))
	dst = append(dst, h.Digest[:]...)
	dst = types.AppendNodeID(dst, h.Primary)
	dst = append(dst, h.PrevHash[:]...)
	dst = append(dst, h.MerkleRoot[:]...)
	return types.AppendU64(dst, uint64(h.TxnCount))
}

func readHeader(r *types.Reader) (h BlockHeader) {
	h.Seq = types.SeqNum(r.U64())
	h.Digest = r.Digest()
	h.Primary = r.NodeID()
	h.PrevHash = r.Digest()
	h.MerkleRoot = r.Digest()
	h.TxnCount = int(r.U64())
	return
}

// minSnapBlockSize is the smallest encoding of one SnapBlock, for
// Reader.Count: seq, primary, empty batch, no results.
const minSnapBlockSize = 8 + 17 + 3*8 + 8

// Encode serializes s: magic, payload, CRC32C trailer.
func (s *Snapshot) Encode() []byte {
	dst := append([]byte(nil), snapMagic...)
	dst = types.AppendU64(dst, uint64(s.Shard))
	dst = types.AppendU64(dst, uint64(s.StableSeq))
	dst = append(dst, s.CheckpointDigest[:]...)
	dst = types.AppendU64(dst, uint64(s.KMax))
	dst = types.AppendU64(dst, uint64(s.ExecSeq))
	dst = types.AppendU64(dst, uint64(s.View))
	dst = append(dst, s.PrefixDigest[:]...)
	dst = types.AppendU64(dst, uint64(s.LastCheckpoint))
	dst = types.AppendU64(dst, s.WalLSN)
	dst = appendHeader(dst, &s.Base)
	dst = types.AppendU64(dst, uint64(s.BaseIndex))
	dst = types.AppendU64(dst, uint64(len(s.Blocks)))
	for i := range s.Blocks {
		b := &s.Blocks[i]
		dst = types.AppendU64(dst, uint64(b.Seq))
		dst = types.AppendNodeID(dst, b.Primary)
		dst = types.AppendBatch(dst, b.Batch)
		dst = types.AppendU64s(dst, b.Results)
	}
	dst = types.AppendPairs(dst, s.Pairs)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst, castagnoli))
}

// DecodeSnapshot parses and checksums an encoded snapshot.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	if len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	r := types.NewReader(buf[len(snapMagic) : len(buf)-4])
	s := &Snapshot{}
	s.Shard = types.ShardID(r.U64())
	s.StableSeq = types.SeqNum(r.U64())
	s.CheckpointDigest = r.Digest()
	s.KMax = types.SeqNum(r.U64())
	s.ExecSeq = types.SeqNum(r.U64())
	s.View = types.View(r.U64())
	s.PrefixDigest = r.Digest()
	s.LastCheckpoint = types.SeqNum(r.U64())
	s.WalLSN = r.U64()
	s.Base = readHeader(r)
	s.BaseIndex = int(r.U64())
	s.Blocks = make([]SnapBlock, r.Count(minSnapBlockSize))
	for i := range s.Blocks {
		b := &s.Blocks[i]
		b.Seq = types.SeqNum(r.U64())
		b.Primary = r.NodeID()
		b.Batch = r.Batch()
		b.Results = types.ReadU64s[types.Value](r)
	}
	s.Pairs = r.Pairs()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: malformed snapshot body: %v", ErrCorrupt, err)
	}
	return s, nil
}

func snapName(seq types.SeqNum) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(seq), snapSuffix)
}

func parseSnapName(name string) (types.SeqNum, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), "%x", &seq)
	return types.SeqNum(seq), err == nil
}

// WriteSnapshot atomically persists s into dir (tmp file + rename) and
// removes snapshot generations beyond snapKeep.
func WriteSnapshot(fs FS, dir string, s *Snapshot) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	name := snapName(s.StableSeq)
	tmp := Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(s.Encode()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, Join(dir, name)); err != nil {
		return err
	}
	// Prune old generations.
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	var snaps []string
	for _, n := range names {
		if _, ok := parseSnapName(n); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Strings(snaps)
	for len(snaps) > snapKeep {
		if err := fs.Remove(Join(dir, snaps[0])); err != nil {
			return err
		}
		snaps = snaps[1:]
	}
	return nil
}

// LoadLatest returns the newest snapshot in dir that decodes and checksums
// cleanly, skipping damaged generations; ErrNoSnapshot when none survives.
func LoadLatest(fs FS, dir string) (*Snapshot, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	var snaps []string
	for _, n := range names {
		if _, ok := parseSnapName(n); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Strings(snaps)
	for i := len(snaps) - 1; i >= 0; i-- {
		f, err := fs.Open(Join(dir, snaps[i]))
		if err != nil {
			continue
		}
		buf, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			continue
		}
		if s, err := DecodeSnapshot(buf); err == nil {
			return s, nil
		}
	}
	return nil, ErrNoSnapshot
}
