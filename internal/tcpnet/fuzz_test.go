package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"ringbft/internal/types"
)

// FuzzFrameRead feeds an arbitrary byte stream to readLoop over an
// in-memory connection. The loop must never panic or hang, must deliver
// exactly the messages a reference parse of the stream finds before its
// first malformed frame, and must count that frame.
func FuzzFrameRead(f *testing.F) {
	commit := types.AppendMessage(nil, &types.Message{Type: types.MsgCommit, From: types.ReplicaNode(0, 1), Seq: 3})
	pre := types.AppendMessage(nil, &types.Message{
		Type: types.MsgPrePrepare, From: types.ReplicaNode(0, 0), Seq: 4,
		Batch: &types.Batch{Txns: []types.Txn{{Reads: []types.Key{1}, Writes: []types.Key{1}}}, Involved: []types.ShardID{0}},
	})
	f.Add(frame(commit))
	f.Add(append(frame(pre), frame(commit)...))
	f.Add(append(frame(commit), 0, 0, 0, 0))               // good frame, then zero length
	f.Add(append(frame(commit), frame([]byte("junk"))...)) // good frame, then undecodable
	f.Add(frame(pre)[:20])                                 // stream ends mid-body
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))    // claims 64 MiB, sends nothing
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))  // oversized
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, stream []byte) {
		// Reference parse: frames until the stream ends or one is malformed.
		var want []*types.Message
		wantBad := int64(0)
		for rest := stream; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			if n == 0 || n > maxFrame {
				wantBad = 1
				break
			}
			if uint64(len(rest)-4) < uint64(n) {
				break // truncated body: the reader sees EOF, not a bad frame
			}
			m := new(types.Message)
			if types.DecodeMessage(rest[4:4+n], m) != nil {
				wantBad = 1
				break
			}
			want = append(want, m)
			rest = rest[4+n:]
		}

		client, server := net.Pipe()
		tr := &Transport{
			inbox:   make(chan *types.Message, len(stream)/4+1), // no frame is shorter than its header
			conns:   map[net.Conn]struct{}{server: {}},
			closing: make(chan struct{}),
		}
		tr.wg.Add(1)
		go tr.readLoop(server)
		client.Write(stream) // fails once readLoop hangs up on a bad frame; that is the point
		client.Close()
		tr.wg.Wait()

		if got := tr.c.badFrames.Load(); got != wantBad {
			t.Fatalf("badFrames = %d, want %d", got, wantBad)
		}
		if len(tr.inbox) != len(want) {
			t.Fatalf("delivered %d messages, want %d", len(tr.inbox), len(want))
		}
		for i, w := range want {
			got := <-tr.inbox
			if !bytes.Equal(types.AppendMessage(nil, got), types.AppendMessage(nil, w)) {
				t.Fatalf("message %d differs from the reference parse: %+v", i, got)
			}
		}
	})
}
