package harness

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ringbft/internal/types"
)

// TestClient drives one Client per row through a script of sends, replies
// and timer passes.
func TestClient(t *testing.T) {
	batch := func(seq uint64, s types.ShardID) *types.Batch {
		return &types.Batch{
			Txns:     []types.Txn{{ID: types.TxnID{Client: 3, Seq: seq}, Writes: []types.Key{types.Key(s)}}},
			Involved: []types.ShardID{s},
		}
	}
	b1, b2, b3 := batch(1, 1), batch(2, 1), batch(3, 1)
	b0 := batch(4, 0)
	d1, d2 := b1.Digest(), b2.Digest()
	if bytes.Compare(d2[:], d1[:]) < 0 {
		d1, d2 = d2, d1
	}
	reply := func(from types.NodeID, b *types.Batch, v types.View, results ...types.Value) *types.Message {
		return &types.Message{Type: types.MsgResponse, From: from, View: v, Digest: b.Digest(), Results: results}
	}
	r := types.ReplicaNode
	const timeout = time.Second

	// An op is one Send (want its target), Deliver (want the request it
	// answers, if any) or Due (want the requests it returns, in order).
	type op struct {
		send  *types.Batch
		reply *types.Message
		due   bool
		at    time.Duration
		to    types.NodeID
		want  []types.Digest
	}
	rows := []struct {
		name   string
		proto  Protocol
		shards int
		ops    []op
	}{
		{"a mismatching first reply is outvoted", ProtoRingBFT, 2, []op{
			{send: b1, to: r(1, 0)},
			{reply: reply(r(1, 0), b1, 0, 99)},
			{reply: reply(r(1, 1), b1, 0, 7)},
			{reply: reply(r(1, 2), b1, 0, 7), want: []types.Digest{b1.Digest()}},
		}},
		{"another shard, the committee and a wrong result count do not count", ProtoAHL, 2, []op{
			{send: b1, to: r(1, 0)},
			{reply: reply(r(0, 1), b1, 0, 7)},
			{reply: reply(types.CommitteeNode(0), b1, 0, 7)},
			{reply: reply(r(1, 1), b1, 0, 7, 7)},
			{reply: reply(r(1, 2), b1, 0, 7)},
			{reply: reply(r(1, 3), b1, 0, 7), want: []types.Digest{b1.Digest()}},
		}},
		{"zyzzyva needs all n", ProtoZyzzyva, 1, []op{
			{send: b0, to: r(0, 0)},
			{reply: reply(r(0, 0), b0, 0, 7)},
			{reply: reply(r(0, 1), b0, 0, 7)},
			{reply: reply(r(0, 2), b0, 0, 7)},
			{reply: reply(r(0, 3), b0, 0, 7), want: []types.Digest{b0.Digest()}},
		}},
		{"poe needs nf", ProtoPoE, 1, []op{
			{send: b0, to: r(0, 0)},
			{reply: reply(r(0, 0), b0, 0, 7)},
			{reply: reply(r(0, 1), b0, 0, 7)},
			{reply: reply(r(0, 2), b0, 0, 7), want: []types.Digest{b0.Digest()}},
		}},
		{"rcc enters at the client id", ProtoRCC, 1, []op{
			{send: b0, to: r(0, 3)},
		}},
		{"due in digest order, re-armed", ProtoRingBFT, 2, []op{
			{send: b1, to: r(1, 0)},
			{send: b2, to: r(1, 0)},
			{due: true, at: timeout},
			{due: true, at: timeout + 1, want: []types.Digest{d1, d2}},
			{due: true, at: 2 * timeout},
			{due: true, at: 2*timeout + 2, want: []types.Digest{d1, d2}},
		}},
		{"a response's view retargets the next send", ProtoRingBFT, 2, []op{
			{send: b1, to: r(1, 0)},
			{reply: reply(r(1, 3), b1, 2, 7)},
			{reply: reply(r(0, 1), b1, 5, 7)},
			{send: b3, to: r(1, 2)},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			topo, err := NewTopology(row.proto, row.shards, 4, 1, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := NewClient(topo, 3)
			t0 := time.Unix(0, 0)
			for i, o := range row.ops {
				var got []types.Digest
				switch {
				case o.send != nil:
					to, m := c.Send(o.send, t0.Add(o.at))
					if to != o.to || m.Type != types.MsgClientRequest || m.Digest != o.send.Digest() {
						t.Fatalf("op %d: Send went to %v with %v, want %v", i, to, m.Type, o.to)
					}
					continue
				case o.reply != nil:
					if req := c.Deliver(o.reply); req != nil {
						got = append(got, req.Msg.Digest)
						if !slices.Equal(req.Results, o.reply.Results) {
							t.Fatalf("op %d: results %v, want the agreed %v", i, req.Results, o.reply.Results)
						}
					}
				default:
					for _, req := range c.Due(t0.Add(o.at), timeout) {
						got = append(got, req.Msg.Digest)
					}
				}
				if !slices.Equal(got, o.want) {
					t.Fatalf("op %d: got %x, want %x", i, got, o.want)
				}
			}
		})
	}
}
