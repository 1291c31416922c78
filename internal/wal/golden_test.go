package wal

import (
	"encoding/hex"
	"reflect"
	"testing"

	"ringbft/internal/types"
)

// The disk formats are frozen: the hex constants below were produced by the
// codec as it stood before wal, evidence and the wire shared types' cursor
// (commit e6f9c60). A segment or snapshot written by any earlier build must
// still decode, and a new build must write the same bytes.

func goldenBatch() *types.Batch {
	return &types.Batch{
		Txns: []types.Txn{
			{ID: types.TxnID{Client: 3, Seq: 11}, Reads: []types.Key{5, 9}, Writes: []types.Key{5}, Delta: 7},
			{ID: types.TxnID{Client: 4, Seq: 12}, Reads: []types.Key{8}, Writes: []types.Key{8, 2}, Delta: 1 << 40},
		},
		Involved: []types.ShardID{0, 2},
		Reqs:     []uint32{1, 1},
	}
}

func goldenRecords() []*Record {
	block := BlockRecord(42, types.ReplicaNode(2, 3), goldenBatch(), []types.Value{7, 1 << 40})
	block.LSN = 0x0102
	progress := ProgressRecord(77, types.Digest{1, 2, 3}, 64, types.Digest{0xaa}, 5)
	progress.LSN = 9
	ev := EvidenceRecord([]byte{0xde, 0xad, 0xbe, 0xef})
	ev.LSN = 10
	return []*Record{block, progress, ev}
}

func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Shard: 1, StableSeq: 64, CheckpointDigest: types.Digest{0xc1},
		KMax: 70, ExecSeq: 66, View: 2, PrefixDigest: types.Digest{0xd2},
		LastCheckpoint: 64, WalLSN: 300,
		Base: BlockHeader{
			Seq: 63, Digest: types.Digest{0xb1}, Primary: types.ReplicaNode(1, 2),
			PrevHash: types.Digest{0xb2}, MerkleRoot: types.Digest{0xb3}, TxnCount: 2,
		},
		BaseIndex: 63,
		Blocks: []SnapBlock{
			{Seq: 64, Primary: types.ReplicaNode(1, 0), Batch: goldenBatch(), Results: []types.Value{1, 2}},
		},
		Pairs: []types.Pair{{K: 1, V: 10}, {K: 4, V: 1 << 33}},
	}
}

var goldenRecordHex = []string{
	// KindBlock
	"000000000000010201000000000000002a00000000000000000200000000000000030000000000000002000000000000" +
		"0003000000000000000b0000000000000002000000000000000500000000000000090000000000000001000000000000" +
		"000500000000000000070000000000000004000000000000000c00000000000000010000000000000008000000000000" +
		"000200000000000000080000000000000002000001000000000000000000000000020000000000000000000000000000" +
		"000200000000000000020000000000000001000000000000000100000000000000020000000000000007000001000000" +
		"0000",
	// KindProgress
	"000000000000000902000000000000004d01020300000000000000000000000000000000000000000000000000000000" +
		"000000000000000040aa0000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"05",
	// KindEvidence
	"000000000000000a030000000000000004deadbeef",
}

const goldenSnapshotHex = "5242534e4150310a00000000000000010000000000000040c10000000000000000000000000000000000000000000000" +
	"0000000000000000000000000000004600000000000000420000000000000002d2000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000040000000000000012c000000000000003fb100000000000000" +
	"0000000000000000000000000000000000000000000000000000000000000000010000000000000002b2000000000000" +
	"00000000000000000000000000000000000000000000000000b300000000000000000000000000000000000000000000" +
	"0000000000000000000000000000000002000000000000003f0000000000000001000000000000004000000000000000" +
	"0001000000000000000000000000000000020000000000000003000000000000000b0000000000000002000000000000" +
	"000500000000000000090000000000000001000000000000000500000000000000070000000000000004000000000000" +
	"000c00000000000000010000000000000008000000000000000200000000000000080000000000000002000001000000" +
	"000000000000000000020000000000000000000000000000000200000000000000020000000000000001000000000000" +
	"000100000000000000020000000000000001000000000000000200000000000000020000000000000001000000000000" +
	"000a00000000000000040000000200000000f7f41cd8"

func TestGoldenRecordBytes(t *testing.T) {
	for i, rec := range goldenRecords() {
		got := hex.EncodeToString(rec.encode(nil))
		if got != goldenRecordHex[i] {
			t.Fatalf("%s record encodes to\n%s\nwant\n%s", rec.Kind, got, goldenRecordHex[i])
		}
		raw, _ := hex.DecodeString(goldenRecordHex[i])
		back := decodeRecord(raw)
		if back == nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("%s record decodes to %+v, want %+v", rec.Kind, back, rec)
		}
	}
}

func TestGoldenSnapshotBytes(t *testing.T) {
	snap := goldenSnapshot()
	got := hex.EncodeToString(snap.Encode())
	if got != goldenSnapshotHex {
		t.Fatalf("snapshot encodes to\n%s\nwant\n%s", got, goldenSnapshotHex)
	}
	raw, _ := hex.DecodeString(goldenSnapshotHex)
	back, err := DecodeSnapshot(raw)
	if err != nil || !reflect.DeepEqual(back, snap) {
		t.Fatalf("snapshot decodes to %+v (%v), want %+v", back, err, snap)
	}
}
