package host_test

import (
	"slices"
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/harness"
	"ringbft/internal/host"
	"ringbft/internal/store"
	"ringbft/internal/types"
)

// xferNode is what these tests read off a shard replica.
type xferNode interface {
	host.Handler
	StateTransferCount() int64
	Store() *store.KV
	ExecutedThrough() types.SeqNum
}

const xferInterval = 4

var requester = types.ReplicaNode(0, 3)

type routed struct {
	to types.NodeID
	m  *types.Message
}

// xferFixture is shard 0 of a two-shard RingBFT or Sharper topology with
// real keys, driven synchronously on a virtual clock. Replicas 0-2 commit
// two checkpoint intervals of single-shard batches. The requester, replica
// 3, hears only the Checkpoints of the first interval, and everything it
// says is lost except its state requests. It asked for state twice, and
// each time the answers came back to it undelivered: early certifies the
// first checkpoint, which it saw stabilize, and late the second, which it
// never saw. Its request is still outstanding.
type xferFixture struct {
	tb     testing.TB
	topo   *harness.Topology
	counts map[types.NodeID]*crypto.CountingAuth
	nodes  map[types.NodeID]xferNode
	now    time.Time
	queue  []routed
	held   []routed         // the requester's state requests, not yet delivered
	caught []*types.Message // state snapshots addressed to the requester
	cpTo   types.SeqNum     // the requester hears Checkpoints up to this sequence
	txns   uint64

	early, late *types.Message
}

func newXferFixture(tb testing.TB, p harness.Protocol) *xferFixture {
	tb.Helper()
	f := &xferFixture{
		tb: tb, now: time.Unix(1000, 0), cpTo: xferInterval,
		counts: make(map[types.NodeID]*crypto.CountingAuth),
		nodes:  make(map[types.NodeID]xferNode),
	}
	topo, err := harness.NewTopology(p, 2, 4, 1, false, func(id types.NodeID, a crypto.Authenticator) crypto.Authenticator {
		c := &crypto.CountingAuth{Authenticator: a}
		f.counts[id] = c
		return c
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.topo = topo
	cfg := types.DefaultConfig(2, 4)
	cfg.CheckpointInterval = xferInterval
	for i := 0; i < 4; i++ {
		id := types.ReplicaNode(0, i)
		n, err := topo.Build(cfg, id, 16, harness.Hooks{Send: f.sender(id), Clock: func() time.Time { return f.now }})
		if err != nil {
			tb.Fatal(err)
		}
		f.nodes[id] = n.(xferNode)
	}
	f.commit(xferInterval)
	f.nodes[requester].HandleTick(f.now) // Sharper asks on its tick, RingBFT on the stable checkpoint
	f.early = f.answer()
	f.commit(xferInterval)
	f.now = f.now.Add(time.Second) // past both retry cadences
	f.nodes[requester].HandleTick(f.now)
	f.late = f.answer()
	if f.early.Seq != xferInterval || f.late.Seq != 2*xferInterval {
		tb.Fatalf("answers at %d and %d, want %d and %d", f.early.Seq, f.late.Seq, xferInterval, 2*xferInterval)
	}
	return f
}

func (f *xferFixture) sender(from types.NodeID) host.Sender {
	return func(to types.NodeID, m *types.Message) {
		switch {
		case from == requester:
			if m.Type == types.MsgStateRequest {
				f.held = append(f.held, routed{to, m})
			}
		case to == requester:
			if m.Type == types.MsgStateSnapshot {
				f.caught = append(f.caught, m)
			} else if m.Type == types.MsgCheckpoint && m.Seq <= f.cpTo {
				f.queue = append(f.queue, routed{to, m})
			}
		case to.Kind == types.KindReplica && to.Shard == 0:
			f.queue = append(f.queue, routed{to, m})
		}
	}
}

func (f *xferFixture) pump() {
	for i := 0; len(f.queue) > 0; i++ {
		if i > 100000 {
			f.tb.Fatal("message storm")
		}
		e := f.queue[0]
		f.queue = f.queue[1:]
		f.nodes[e.to].HandleMessage(e.m)
	}
}

// commit submits n single-shard batches to the primary and delivers
// everything that follows.
func (f *xferFixture) commit(n int) {
	for range n {
		f.txns++
		k := types.Key(2 * (f.txns % 8)) // shard 0 owns the even keys
		b := &types.Batch{
			Txns:     []types.Txn{{ID: types.TxnID{Client: 1, Seq: f.txns}, Reads: []types.Key{k}, Writes: []types.Key{k}, Delta: 1}},
			Involved: []types.ShardID{0},
		}
		f.queue = append(f.queue, routed{types.ReplicaNode(0, 0), &types.Message{
			Type: types.MsgClientRequest, From: types.ClientNode(1), Digest: b.Digest(), Batch: b,
		}})
		f.pump()
	}
}

// answer delivers the requester's held state requests and returns the
// first answer.
func (f *xferFixture) answer() *types.Message {
	f.queue, f.held, f.caught = append(f.queue, f.held...), nil, nil
	f.pump()
	if len(f.caught) == 0 {
		f.tb.Fatal("no replica answered the state request")
	}
	return f.caught[0]
}

// deliver hands m to the requester and reports whether it installed a
// state transfer, and how many signatures it verified doing so.
func (f *xferFixture) deliver(m *types.Message) (installed bool, verifies int64) {
	r, c := f.nodes[requester], f.counts[requester]
	n, v := r.StateTransferCount(), c.Verifies.Load()
	r.HandleMessage(m)
	return r.StateTransferCount() > n, c.Verifies.Load() - v
}

// sign re-signs s with its From's key.
func (f *xferFixture) sign(s *types.Signed) {
	s.Sig = f.topo.Auth(s.From).Sign(s.SigBytes())
}

// clone deep-copies m through the wire codec.
func clone(tb testing.TB, m *types.Message) *types.Message {
	var c types.Message
	if err := types.DecodeMessage(types.AppendMessage(nil, m), &c); err != nil {
		tb.Fatal(err)
	}
	return &c
}

// TestStateTransferTamper runs one table of state-transfer payloads against
// a RingBFT and a Sharper requester. Every rejected case breaks exactly one
// rule, of the anchor (VerifyCheckpoint), the host's request bookkeeping or
// the protocol's content check, and is otherwise valid, so only that rule
// rejects it. (Sharper's fold also catches a payload whose Seq is not its
// message's, so that case runs against RingBFT only.)
func TestStateTransferTamper(t *testing.T) {
	const nf = 3
	last := func(m *types.Message) *types.Signed { return &m.State.Cert[nf-1] }
	cases := []struct {
		name  string
		proto harness.Protocol // "" = both
		// payload returns the message to deliver, built from the fixture's
		// genuine answers.
		payload func(f *xferFixture) *types.Message
		install bool
	}{
		{"a checkpoint it saw stabilize installs with no signature checked", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.early)
			m.State.Cert = types.ZeroedCert(m.State.Cert) // never looked at
			return m
		}, true},
		{"a checkpoint it never saw installs from the carried certificate", "", func(f *xferFixture) *types.Message {
			return f.late
		}, true},
		{"one bad signature among nf+1 entries", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Cert[0].Sig[0] ^= 1
			extra := m.State.Cert[0]
			extra.From = requester
			f.sign(&extra)
			m.State.Cert = append(m.State.Cert, extra)
			return m
		}, true},
		{"a certificate short of nf", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Cert = m.State.Cert[:nf-1]
			return m
		}, false},
		{"a voter counted twice", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Cert[nf-1] = m.State.Cert[0]
			return m
		}, false},
		{"a voter from another shard", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			s := last(m)
			s.From = types.ReplicaNode(1, s.From.Index)
			f.sign(s)
			return m
		}, false},
		{"an entry that is not a Checkpoint", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			s := last(m)
			s.Type = types.MsgCommit
			f.sign(s)
			return m
		}, false},
		{"an entry of another shard's checkpoint", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			s := last(m)
			s.Shard = 1
			f.sign(s)
			return m
		}, false},
		{"an entry over another sequence", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			s := last(m)
			s.Seq++
			f.sign(s)
			return m
		}, false},
		{"an entry over another digest", "", func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			s := last(m)
			s.Digest[0] ^= 1
			f.sign(s)
			return m
		}, false},
		{"a payload for another sequence than its message", harness.ProtoRingBFT, func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Seq--
			return m
		}, false},
		{"a payload with no request outstanding", "", func(f *xferFixture) *types.Message {
			if ok, _ := f.deliver(f.early); !ok {
				f.tb.Fatal("the early answer did not install")
			}
			return f.late
		}, false},
		{"pairs that do not hash to the state digest", harness.ProtoRingBFT, func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Pairs[0].V++
			return m
		}, false},
		{"a prefix digest the checkpoint does not certify", harness.ProtoRingBFT, func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.PrefixDigest[0] ^= 1
			return m
		}, false},
		{"a block substituted", harness.ProtoSharper, func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Blocks[len(m.State.Blocks)-1].Batch.Txns[0].Delta++
			return m
		}, false},
		{"a block out of order past the fold", harness.ProtoSharper, func(f *xferFixture) *types.Message {
			m := clone(f.tb, f.late)
			m.State.Blocks = append(m.State.Blocks, m.State.Blocks[0])
			return m
		}, false},
	}
	for _, p := range []harness.Protocol{harness.ProtoRingBFT, harness.ProtoSharper} {
		for _, tc := range cases {
			if tc.proto != "" && tc.proto != p {
				continue
			}
			t.Run(string(p)+"/"+tc.name, func(t *testing.T) {
				f := newXferFixture(t, p)
				m := tc.payload(f)
				installed, verifies := f.deliver(m)
				if installed != tc.install {
					t.Fatalf("installed = %v, want %v", installed, tc.install)
				}
				if !installed {
					return
				}
				if got := f.nodes[requester].ExecutedThrough(); got != m.Seq {
					t.Fatalf("executed through %d after installing checkpoint %d", got, m.Seq)
				}
				if m.Seq == f.early.Seq && verifies != 0 {
					t.Fatalf("a checkpoint it saw stabilize cost %d signature checks, want 0", verifies)
				}
			})
		}
	}
}

// certified reports whether nf Checkpoint signatures of distinct shard-0
// replicas, checked with the topology's keys, cover (m.Seq, m.Digest): the
// fuzz oracle's own reading of the anchor rule.
func (f *xferFixture) certified(m *types.Message) bool {
	if m.Seq == f.early.Seq && m.Digest == f.early.Digest {
		return true // the requester saw it stabilize
	}
	if m.State == nil {
		return false
	}
	var voters []types.NodeID
	for _, s := range m.State.Cert {
		if s.Type != types.MsgCheckpoint || s.Shard != 0 || s.Seq != m.Seq || s.Digest != m.Digest ||
			s.From.Kind != types.KindReplica || s.From.Shard != 0 || slices.Contains(voters, s.From) {
			continue
		}
		if a := f.topo.Auth(s.From); a != nil && a.Verify(s.From, s.SigBytes(), s.Sig) == nil {
			voters = append(voters, s.From)
		}
	}
	return len(voters) >= 3
}

// FuzzStateSnapshot feeds one wire message to the requester of a fresh
// xferFixture, seeded with the genuine early and late answers of both
// protocols. The message is re-MAC'd under its sender's key, as a faulty
// shard peer would send it. Whatever the bytes, the requester does not
// panic, and it installs a state transfer only for a checkpoint that nf
// Checkpoint signatures certify, ending in exactly the state the genuine
// answer for that checkpoint leaves.
func FuzzStateSnapshot(f *testing.F) {
	protos := []harness.Protocol{harness.ProtoRingBFT, harness.ProtoSharper}
	// want[p][seq] is the requester's table after installing the genuine
	// answer for checkpoint seq.
	want := make([]map[types.SeqNum][]store.Pair, len(protos))
	for i, p := range protos {
		want[i] = make(map[types.SeqNum][]store.Pair)
		for _, late := range []bool{false, true} {
			fx := newXferFixture(f, p)
			m := fx.early
			if late {
				m = fx.late
			}
			if ok, _ := fx.deliver(m); !ok {
				f.Fatalf("%s: the genuine answer at %d did not install", p, m.Seq)
			}
			want[i][m.Seq] = fx.nodes[requester].Store().Pairs()
			f.Add(i == 1, types.AppendMessage(nil, m))
		}
	}
	f.Fuzz(func(t *testing.T, sharper bool, in []byte) {
		var m types.Message
		if types.DecodeMessage(in, &m) != nil {
			return
		}
		i := 0
		if sharper {
			i = 1
		}
		fx := newXferFixture(t, protos[i])
		if m.From.Kind == types.KindReplica && m.From.Shard == 0 && m.From != requester &&
			m.From.Index >= 0 && m.From.Index < 4 {
			m.MAC = crypto.MACMessage(fx.topo.Auth(m.From), requester, &m)
		}
		installed, _ := fx.deliver(&m)
		if !installed {
			return
		}
		if m.Type != types.MsgStateSnapshot || !fx.certified(&m) {
			t.Fatalf("installed a %v at (%d, %x) no quorum certifies", m.Type, m.Seq, m.Digest[:4])
		}
		pairs, ok := want[i][m.Seq]
		if !ok || !slices.Equal(fx.nodes[requester].Store().Pairs(), pairs) {
			t.Fatalf("installed checkpoint %d into a table the genuine answer does not leave", m.Seq)
		}
	})
}
