package evidence

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"ringbft/internal/types"
)

// goldenEvidenceHex is the persisted form of goldenEvidence as written
// before evidence, wal and the wire shared types' cursor (commit e6f9c60):
// evidence already on disk must keep decoding, byte for byte.
const goldenEvidenceHex = "020000000000000000020000000000000001000000000000000000000000000000040000000000000013010000000000" +
	"00000002000000000000000107000000000000000200000000000000040000000000000013a100000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000501020304050000000000000000000000000000" +
	"000002000000000000000107000000000000000200000000000000040000000000000013a20000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000020607000000000000000108"

func goldenEvidence() Record {
	accused := types.ReplicaNode(2, 1)
	return Record{
		Kind: KindConflictingForward, Accused: accused, Shard: 0, View: 4, Seq: 19,
		First: Msg{
			From: accused, Type: types.MsgForward, Shard: 2, View: 4, Seq: 19,
			Digest: digest(0xa1), Sig: []byte{1, 2, 3, 4, 5},
		},
		Second: Msg{
			From: accused, Type: types.MsgForward, Shard: 2, View: 4, Seq: 19,
			Digest: digest(0xa2), Sig: []byte{6, 7}, MAC: []byte{8},
		},
		Transferable: true,
	}
}

func TestGoldenEvidenceBytes(t *testing.T) {
	rec := goldenEvidence()
	got := hex.EncodeToString(encode(&rec))
	if got != goldenEvidenceHex {
		t.Fatalf("evidence record encodes to\n%s\nwant\n%s", got, goldenEvidenceHex)
	}
	raw, _ := hex.DecodeString(goldenEvidenceHex)
	back, ok := decode(raw)
	if !ok || !reflect.DeepEqual(back, rec) {
		t.Fatalf("evidence record decodes to %+v (ok=%v), want %+v", back, ok, rec)
	}
}

// FuzzDecodeEvidence: the evidence log's record decoder reads bytes back from disk.
// Nothing may panic, and a payload that decodes must re-encode to the
// identical bytes.
func FuzzDecodeEvidence(f *testing.F) {
	rec := goldenEvidence()
	f.Add(encode(&rec))
	f.Add(encode(&Record{}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, ok := decode(payload)
		if !ok {
			return
		}
		if got := encode(&rec); !bytes.Equal(got, payload) {
			t.Fatalf("decode/encode not canonical: %x re-encodes to %x", payload, got)
		}
	})
}
