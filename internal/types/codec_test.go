package types

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// fill sets every field reachable from v to a distinct non-zero value:
// slices get two elements, pointers get a value. A kind it does not know
// fails the test, so a new field of a new shape cannot slip past the round
// trip below.
func fill(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint8:
		if v.Type() == reflect.TypeOf(MsgType(0)) {
			v.SetUint(1 + *next%uint64(msgTypeCount-1))
		} else {
			v.SetUint(1 + *next%255)
		}
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(*next)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), next)
		}
	default:
		t.Fatalf("fill: wire structs grew a %s field; teach the codec and this test about it", v.Kind())
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	enc := AppendMessage(nil, m)
	var got Message
	if err := DecodeMessage(enc, &got); err != nil {
		t.Fatalf("%v: decode of own encoding: %v", m.Type, err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Fatalf("%v: round trip differs:\n got %+v\nwant %+v", m.Type, &got, m)
	}
	if re := AppendMessage(nil, &got); !bytes.Equal(re, enc) {
		t.Fatalf("%v: decode(encode(m)) re-encodes to different bytes", m.Type)
	}
	return &got
}

// TestCodecEveryField: a Message with every field of every nested wire
// struct populated survives encode -> decode. A field added to any of them
// without codec support comes back zero and fails DeepEqual.
func TestCodecEveryField(t *testing.T) {
	var m Message
	var next uint64
	fill(t, reflect.ValueOf(&m).Elem(), &next)
	roundTrip(t, &m)
}

func testSig(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }

func testBatch(nTxns int, involved ...ShardID) *Batch {
	b := &Batch{Involved: involved}
	for i := 0; i < nTxns; i++ {
		k := Key(3*i + 1)
		b.Txns = append(b.Txns, Txn{
			ID: TxnID{Client: ClientID(i % 4), Seq: uint64(100 + i)}, Reads: []Key{k, k + 1}, Writes: []Key{k}, Delta: Value(i + 1),
		})
	}
	return b
}

// testCert is an nf = 3 certificate of signed votes of type typ on d.
func testCert(typ MsgType, shard ShardID, d Digest) []Signed {
	var cert []Signed
	for i := 0; i < 3; i++ {
		cert = append(cert, Signed{From: ReplicaNode(shard, i), Type: typ, Shard: shard, View: 2, Seq: 9, Digest: d, Sig: testSig(byte(i + 1))})
	}
	return cert
}

// sampleMessages returns one message per MsgType, shaped as the protocols
// build them, plus the variants whose payloads differ (StateSnapshot with
// pairs and with blocks).
func sampleMessages() []*Message {
	single, cross := testBatch(10, 1), testBatch(10, 0, 1, 2)
	sd, cd := single.Digest(), cross.Digest()
	r := ReplicaNode(1, 2)
	coalesced := testBatch(4, 1)
	coalesced.Reqs = []uint32{1, 3}
	msgs := []*Message{
		{Type: MsgClientRequest, From: ClientNode(7), Shard: 1, Digest: sd, Batch: single},
		{Type: MsgPrePrepare, From: r, View: 2, Seq: 9, Shard: 1, Digest: sd, Batch: single, MAC: bytes.Repeat([]byte{7}, 4*16)},
		{Type: MsgPrepare, From: r, View: 2, Seq: 9, Shard: 1, Digest: sd, MAC: bytes.Repeat([]byte{8}, 4*16)},
		{Type: MsgCommit, From: r, View: 2, Seq: 9, Shard: 1, Digest: sd, MAC: bytes.Repeat([]byte{9}, 4*16)},
		{Type: MsgCheckpoint, From: r, Seq: 64, Shard: 1, Digest: Digest{0xcc}, Sig: testSig(1)},
		{Type: MsgViewChange, From: r, View: 3, Shard: 1, StableSeq: 64, Sig: testSig(2),
			Prepared: []PreparedProof{{View: 2, Seq: 65, Digest: cd, Batch: cross, Justification: testCert(MsgCommit, 0, cd)}}},
		{Type: MsgNewView, From: r, View: 3, Shard: 1, StableSeq: 64, Sig: testSig(3),
			Prepared: []PreparedProof{
				{View: 2, Seq: 65, Digest: cd, Batch: cross, Justification: testCert(MsgCommit, 0, cd)},
				{View: 3, Seq: 66, Batch: &Batch{}}, // no-op filler: empty, not absent
				{View: 2, Seq: 67, Digest: sd, Batch: coalesced},
			},
			ViewMsgs: testCert(MsgViewChange, 1, Digest{})},
		{Type: MsgForward, From: r, View: 2, Seq: 9, Shard: 1, Digest: cd, Batch: cross, Sig: testSig(4),
			Cert:      testCert(MsgCommit, 1, cd),
			WriteSets: []WriteSet{{Shard: 0, Keys: []Key{3, 6}, Values: []Value{30, 60}, ReadKeys: []Key{3, 6, 9}, ReadValues: []Value{1, 2, 3}}}},
		{Type: MsgExecute, From: r, View: 2, Seq: 9, Shard: 1, Digest: cd, Sig: testSig(5),
			WriteSets: []WriteSet{
				{Shard: 0, Keys: []Key{3}, Values: []Value{30}},
				{Shard: 1, ReadKeys: []Key{4}, ReadValues: []Value{40}},
			}},
		{Type: MsgRemoteView, From: r, View: 2, Shard: 0, Digest: cd, Sig: testSig(6)},
		{Type: MsgResponse, From: r, View: 2, Seq: 9, Shard: 1, Digest: sd, Results: []Value{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, MAC: bytes.Repeat([]byte{1}, 16)},
		{Type: MsgStateRequest, From: r, Seq: 128, Shard: 1, MAC: bytes.Repeat([]byte{2}, 16)},
		{Type: MsgStateSnapshot, From: r, Seq: 128, Shard: 1, Sig: testSig(7), State: &StatePayload{
			Seq: 128, PrefixDigest: Digest{1}, StateDigest: Digest{2},
			Pairs: []Pair{{K: 1, V: 10}, {K: 4, V: 40}, {K: 7, V: 70}},
		}},
		{Type: MsgStateSnapshot, From: r, Seq: 128, Shard: 1, Sig: testSig(8), State: &StatePayload{
			Seq: 128, PrefixDigest: Digest{1},
			Cert: testCert(MsgCheckpoint, 1, Digest{1}),
			Blocks: []BlockRec{
				{Seq: 126, Primary: ReplicaNode(1, 0), Batch: single},
				{Seq: 127, Primary: ReplicaNode(1, 0)},
				{Seq: 128, Primary: ReplicaNode(1, 0), Batch: cross},
			},
		}},
		{Type: MsgAHLPrepare, From: CommitteeNode(0), View: 1, Seq: 5, Shard: CommitteeShard, Digest: cd, Batch: cross, Cert: testCert(MsgCommit, CommitteeShard, cd), Sig: testSig(9)},
		{Type: MsgAHLVote, From: r, Seq: 5, Shard: 1, Digest: cd, Decision: true, Cert: testCert(MsgCommit, 1, cd), Sig: testSig(10)},
		{Type: MsgAHLDecision, From: CommitteeNode(1), Seq: 6, Shard: CommitteeShard, Digest: cd, Decision: true, Cert: testCert(MsgCommit, CommitteeShard, cd), Sig: testSig(11)},
		{Type: MsgSharperPropose, From: r, View: 1, Seq: 4, Shard: 1, Digest: cd, Batch: cross, Sig: testSig(12)},
	}
	// The remaining types are header-only votes with an instance/phase tag.
	have := map[MsgType]bool{}
	for _, m := range msgs {
		have[m.Type] = true
	}
	for typ := MsgType(0); typ < msgTypeCount; typ++ {
		if !have[typ] {
			msgs = append(msgs, &Message{Type: typ, From: r, View: 1, Seq: 4, Shard: 1, Digest: sd, Instance: int(typ), Sig: testSig(byte(typ))})
		}
	}
	return msgs
}

// TestCodecMessageTable: every message type round-trips, and no encoding
// has a proper prefix or a one-byte extension that decodes.
func TestCodecMessageTable(t *testing.T) {
	for _, m := range sampleMessages() {
		roundTrip(t, m)
		enc := AppendMessage(nil, m)
		var scratch Message
		for cut := 0; cut < len(enc); cut++ {
			if err := DecodeMessage(enc[:cut], &scratch); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%v: truncation to %d of %d bytes: err = %v", m.Type, cut, len(enc), err)
			}
		}
		for _, extra := range []byte{0, 1, 0xff} {
			if err := DecodeMessage(append(enc[:len(enc):len(enc)], extra), &scratch); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%v: trailing byte %#x accepted (err = %v)", m.Type, extra, err)
			}
		}
	}
}

// TestCodecNilVersusEmpty: an absent batch and an empty one are different
// messages (view-change no-op fillers are empty, not absent), and a
// negative shard id survives its trip through a uint64.
func TestCodecNilVersusEmpty(t *testing.T) {
	absent := roundTrip(t, &Message{Type: MsgPrePrepare})
	if absent.Batch != nil {
		t.Fatal("absent batch decoded as present")
	}
	empty := roundTrip(t, &Message{Type: MsgPrePrepare, Batch: &Batch{}})
	if empty.Batch == nil {
		t.Fatal("empty batch decoded as absent")
	}
	// Empty slices and nil slices are one encoding; both decode to nil.
	var got Message
	if err := DecodeMessage(AppendMessage(nil, &Message{Results: []Value{}, MAC: []byte{}}), &got); err != nil {
		t.Fatal(err)
	}
	if got.Results != nil || got.MAC != nil {
		t.Fatalf("empty slices decoded non-nil: %+v", got)
	}
	committee := roundTrip(t, &Message{Type: MsgAHLDecision, From: CommitteeNode(2), Shard: CommitteeShard, Instance: -3})
	if committee.Shard != CommitteeShard || committee.From.Shard != CommitteeShard || committee.Instance != -3 {
		t.Fatalf("negative ints mangled: %+v", committee)
	}
}

// TestCodecRejects: the error cases the layout rules name, each produced by
// editing one byte (or one field) of a valid encoding.
func TestCodecRejects(t *testing.T) {
	base := &Message{Type: MsgPrePrepare, Batch: &Batch{Txns: []Txn{{Reads: []Key{1}}}, Reqs: []uint32{1, 1}}}
	enc := AppendMessage(nil, base)
	// Offsets of the fixed header: version, type, from, view, seq, shard,
	// digest, decision, instance, stable seq, batch presence.
	const (
		offVersion  = 0
		offType     = 1
		offDecision = 2 + nodeIDSize + 3*8 + 32
		offPresence = offDecision + 1 + 2*8
		offTxnCount = offPresence + 1
	)
	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), enc...)
		out[off] = b
		return out
	}
	reqTooBig := AppendMessage(nil, base)
	reqTooBig[bytes.LastIndex(reqTooBig, AppendU64(nil, 1))+3] = 1 // last Reqs entry becomes 1<<32 + 1
	cases := map[string][]byte{
		"empty":                    {},
		"version 0":                mutate(offVersion, 0),
		"version 2":                mutate(offVersion, 2),
		"type = msgTypeCount":      mutate(offType, byte(msgTypeCount)),
		"bool byte 2":              mutate(offDecision, 2),
		"presence byte 2":          mutate(offPresence, 2),
		"count larger than input":  mutate(offTxnCount+5, 1),
		"count of 2^63":            mutate(offTxnCount, 0x80),
		"request size > MaxUint32": reqTooBig,
	}
	for name, in := range cases {
		var m Message
		if err := DecodeMessage(in, &m); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// decodeAlloc reports the bytes DecodeMessage allocates on in.
func decodeAlloc(in []byte) (uint64, error) {
	var before, after runtime.MemStats
	var m Message
	runtime.ReadMemStats(&before)
	err := DecodeMessage(in, &m)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// FuzzDecodeMessage: arbitrary bytes never panic the decoder, never make it
// allocate more than a constant times the input (a count is checked against
// the bytes that remain before it sizes anything), and whatever it accepts
// is canonical: it re-encodes to exactly the input.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(AppendMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	f.Add(append([]byte{wireVersion, byte(MsgForward)}, bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 1}, 64)...))

	f.Fuzz(func(t *testing.T, in []byte) {
		// In memory an element is at most ~3x its smallest encoding; 8x plus
		// the fixed cost (cursor, error, size-class rounding) is generous.
		// Another goroutine of the test binary can allocate inside the
		// window, so only a bound missed three times running counts.
		bound := 8*uint64(len(in)) + 4096
		var alloc uint64
		for try := 0; try < 3; try++ {
			if alloc, _ = decodeAlloc(in); alloc <= bound {
				break
			}
		}
		if alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (> %d)", len(in), alloc, bound)
		}
		var m Message
		if err := DecodeMessage(in, &m); err != nil {
			return
		}
		if re := AppendMessage(nil, &m); !bytes.Equal(re, in) {
			t.Fatalf("accepted a non-canonical encoding:\n in %x\nout %x", in, re)
		}
	})
}

var (
	benchSinkBytes []byte
	benchSinkErr   error
)

// BenchmarkMessageCodec is the wire layer's per-message cost: the three
// frames that dominate a RingBFT run, at the benchmark's 10-txn requests.
func BenchmarkMessageCodec(b *testing.B) {
	byType := map[MsgType]*Message{}
	for _, m := range sampleMessages() {
		if byType[m.Type] == nil {
			byType[m.Type] = m
		}
	}
	for _, typ := range []MsgType{MsgPrePrepare, MsgCommit, MsgForward} {
		m := byType[typ]
		enc := AppendMessage(nil, m)
		b.Run("encode/"+typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			buf := make([]byte, 0, len(enc))
			for b.Loop() {
				benchSinkBytes = AppendMessage(buf[:0], m)
			}
		})
		b.Run("decode/"+typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			var out Message
			for b.Loop() {
				benchSinkErr = DecodeMessage(enc, &out)
			}
		})
	}
}
