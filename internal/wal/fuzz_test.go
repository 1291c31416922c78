package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"ringbft/internal/types"
)

// FuzzReplayTornTail: any mutation of the final segment's byte suffix —
// truncation, garbage, bit flips, duplicated frames — must recover to a
// valid prefix of the original records, never error, and leave a log that
// accepts appends and replays cleanly afterwards.
func FuzzReplayTornTail(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), []byte{0xDE, 0xAD})
	f.Add(uint16(17), []byte{0x00, 0x00, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint16(1000), []byte{0xFF})

	// One healthy reference log, rebuilt per fuzz call from its bytes.
	ref := NewMemFS()
	w, _, err := Open(ref, "d", Options{})
	if err != nil {
		f.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := w.Append(BlockRecord(types.SeqNum(i+1), types.ReplicaNode(0, 0),
			testBatch(1, uint64(i+1), types.Key(i)), []types.Value{types.Value(i)})); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	healthy, _ := ref.ReadFile(Join("d", segName(1)))
	var refRecs []Record
	{
		w, recs, err := Open(ref, "d", Options{})
		if err != nil {
			f.Fatal(err)
		}
		refRecs = recs
		w.Close()
	}

	f.Fuzz(func(t *testing.T, cut uint16, garbage []byte) {
		keep := int(cut) % (len(healthy) + 1)
		mutated := append(append([]byte(nil), healthy[:keep]...), garbage...)

		fs := NewMemFS()
		fs.WriteFile(Join("d", segName(1)), mutated)
		w, recs, err := Open(fs, "d", Options{})
		if err != nil {
			t.Fatalf("replay errored on torn tail (keep=%d, garbage=%d): %v", keep, len(garbage), err)
		}
		// Recovered records must be a prefix of the originals.
		if len(recs) > len(refRecs) {
			t.Fatalf("recovered %d records from a %d-record log", len(recs), len(refRecs))
		}
		for i := range recs {
			want := refRecs[i]
			if recs[i].LSN != want.LSN || recs[i].Seq != want.Seq ||
				recs[i].Batch.Digest() != want.Batch.Digest() {
				t.Fatalf("record %d is not a faithful prefix: got %+v", i, recs[i])
			}
		}
		// The repaired log stays usable: append, close, replay.
		if _, err := w.Append(ProgressRecord(99, types.Digest{9}, 0, types.Digest{}, 0)); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs2, err := Open(fs, "d", Options{})
		if err != nil {
			t.Fatalf("second replay after repair: %v", err)
		}
		defer w2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("after repair+append: %d records, want %d", len(recs2), len(recs)+1)
		}
	})
}

// FuzzDecodeRecord: arbitrary payload bytes must either decode to a
// well-formed record or return nil — never panic or over-read.
func FuzzDecodeRecord(f *testing.F) {
	valid := BlockRecord(3, types.ReplicaNode(1, 2), testBatch(4, 5, 6, 7), []types.Value{8}).encode(nil)
	f.Add(valid)
	f.Add(ProgressRecord(1, types.Digest{1}, 0, types.Digest{}, 0).encode(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec := decodeRecord(payload)
		if rec == nil {
			return
		}
		// A decoded record must re-encode to the identical bytes (canonical
		// encoding — no two byte strings decode to the same record).
		if !bytes.Equal(rec.encode(nil), payload) {
			t.Fatalf("decode/encode not canonical for %x", payload)
		}
	})
}

// FuzzDecodeSnapshot: the fuzzer mutates a snapshot's body and the target
// re-frames it (magic, CRC32C trailer), so inputs reach the structural
// decoder rather than dying at the checksum. Nothing may panic, and a body
// that decodes must re-encode to the identical bytes. The raw input is
// decoded too, for the magic and checksum checks themselves.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := goldenSnapshot().Encode()
	f.Add(valid[len(snapMagic) : len(valid)-4])
	f.Add((&Snapshot{}).Encode()[len(snapMagic):])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = DecodeSnapshot(body)
		framed := append(append([]byte(nil), snapMagic...), body...)
		framed = binary.BigEndian.AppendUint32(framed, crc32.Checksum(framed, castagnoli))
		s, err := DecodeSnapshot(framed)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Encode(), framed) {
			t.Fatalf("decode/encode not canonical for body %x", body)
		}
	})
}
