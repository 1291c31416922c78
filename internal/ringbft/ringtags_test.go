package ringbft

import (
	"reflect"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/types"
)

// holdRing submits the cst b and holds back every cross-shard message of
// type typ into shard into instead of delivering it. It returns the held
// copies by sender: each is the message the sender built, tag vector
// included.
func holdRing(c *cluster, b *types.Batch, typ types.MsgType, into types.ShardID) map[types.NodeID]*types.Message {
	held := make(map[types.NodeID]*types.Message)
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == typ && from.Kind == types.KindReplica && to.Kind == types.KindReplica && from.Shard != into && to.Shard == into {
			held[from] = m
			return true
		}
		return false
	}
	c.submit(1, b)
	c.drop = nil
	if len(held) != c.n {
		c.t.Fatalf("held %d %v copies, want one per sender (%d)", len(held), typ, c.n)
	}
	return held
}

// clone copies m with a private tag vector, so a tamper cannot reach the
// sender's own message.
func clone(m *types.Message) *types.Message {
	cp := *m
	cp.MAC = append([]byte(nil), m.MAC...)
	return &cp
}

// entry returns the tag-vector entry of replica index i.
func entry(vec []byte, i int) []byte { return vec[i*crypto.MACSize : (i+1)*crypto.MACSize] }

// ringTamper rewrites the tag vector of a copy from s0/r0 that replica
// s1/r1 is about to receive.
type ringTamper struct {
	name string
	mut  func(c *cluster, m *types.Message)
}

var ringTampers = []ringTamper{
	{"short vector", func(_ *cluster, m *types.Message) { m.MAC = m.MAC[:len(m.MAC)-1] }},
	{"long vector", func(_ *cluster, m *types.Message) { m.MAC = append(m.MAC, 0) }},
	{"no vector", func(_ *cluster, m *types.Message) { m.MAC = nil }},
	{"another replica's entry", func(_ *cluster, m *types.Message) { copy(entry(m.MAC, 1), entry(m.MAC, 2)) }},
	{"zeroed entry", func(_ *cluster, m *types.Message) { clear(entry(m.MAC, 1)) }},
	{"vector for the wrong shard", func(c *cluster, m *types.Message) {
		m.MAC = c.replicas[m.From].ringTags(2, m)
	}},
}

// TestRingTagForward: a Forward copy counts its sender only when the
// receiver's own entry of the tag vector verifies. The only copy a replica
// sees with any tamper below creates no cst; the untampered copy does.
func TestRingTagForward(t *testing.T) {
	sender, recv := types.ReplicaNode(0, 0), types.ReplicaNode(1, 1)
	for _, tc := range append([]ringTamper{{"intact", func(*cluster, *types.Message) {}}}, ringTampers...) {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 4)
			b := mkBatch(1, 1, 3, []types.ShardID{0, 1}, 2)
			m := clone(holdRing(c, b, types.MsgForward, 1)[sender])
			tc.mut(c, m)
			r := c.replicas[recv]
			r.HandleMessage(m)
			cs, counted := r.csts[b.Digest()]
			if want := tc.name == "intact"; counted != want {
				t.Fatalf("cst created = %v, want %v", counted, want)
			}
			if counted {
				if _, ok := cs.fwdFrom[sender]; !ok {
					t.Fatal("intact copy did not count its sender")
				}
			}
		})
	}
}

// TestRingTagExecute: the same table against an Execute copy reaching a
// locked replica of the next shard: only the intact copy counts its sender.
func TestRingTagExecute(t *testing.T) {
	sender, recv := types.ReplicaNode(0, 0), types.ReplicaNode(1, 1)
	for _, tc := range append([]ringTamper{{"intact", func(*cluster, *types.Message) {}}}, ringTampers...) {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 4)
			b := mkBatch(1, 1, 3, []types.ShardID{0, 1}, 2)
			m := clone(holdRing(c, b, types.MsgExecute, 1)[sender])
			if len(m.Sig) != 0 {
				t.Fatal("Execute carries a signature")
			}
			tc.mut(c, m)
			r := c.replicas[recv]
			r.HandleMessage(m)
			_, counted := r.csts[b.Digest()].execFrom[sender]
			if want := tc.name == "intact"; counted != want {
				t.Fatalf("sender counted = %v, want %v", counted, want)
			}
		})
	}
}

// TestRingTagRelayedGarbage: the lane recipient relays a copy unchanged, so
// a peer authenticates the originating sender with its own entry. A copy
// whose entry for s1/r1 is garbage counts at the lane recipient and at the
// peers whose entries are intact, never at s1/r1.
func TestRingTagRelayedGarbage(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	sender := types.ReplicaNode(0, 0)
	m := clone(holdRing(c, b, types.MsgForward, 1)[sender])
	clear(entry(m.MAC, 1))
	c.queue = append(c.queue, routed{sender, types.ReplicaNode(1, 0), m})
	c.pump()
	for i := 0; i < 4; i++ {
		r := c.replicas[types.ReplicaNode(1, i)]
		counted := false
		if cs, ok := r.csts[b.Digest()]; ok {
			_, counted = cs.fwdFrom[sender]
		}
		if want := i != 1; counted != want {
			t.Fatalf("s1/r%d counted the relayed copy = %v, want %v", i, counted, want)
		}
	}
}

// TestRingTagFaultySender: a faulty s0/r0 whose tag vectors are valid for
// s1/r1 and garbage for s1/r2 is counted by r1 and not by r2, and the cst
// still executes on every replica through the honest lanes.
func TestRingTagFaultySender(t *testing.T) {
	c := newCluster(t, 2, 4)
	faulty := types.ReplicaNode(0, 0)
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if from == faulty && (m.Type == types.MsgForward || m.Type == types.MsgExecute) && len(m.MAC) == 4*crypto.MACSize {
			for i := range entry(m.MAC, 2) {
				entry(m.MAC, 2)[i] = 0xff
			}
		}
		return false
	}
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	c.submit(1, b)
	d := b.Digest()
	if got := c.responses(1, d); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	for id, r := range c.replicas {
		if r.Chain().Height() != 1 {
			t.Fatalf("replica %v height %d, want 1", id, r.Chain().Height())
		}
	}
	r1, r2 := c.replicas[types.ReplicaNode(1, 1)].csts[d], c.replicas[types.ReplicaNode(1, 2)].csts[d]
	if _, ok := r1.fwdFrom[faulty]; !ok {
		t.Error("s1/r1 did not count the faulty sender's Forward, whose entry for it is valid")
	}
	if _, ok := r1.execFrom[faulty]; !ok {
		t.Error("s1/r1 did not count the faulty sender's Execute, whose entry for it is valid")
	}
	if _, ok := r2.fwdFrom[faulty]; ok {
		t.Error("s1/r2 counted a Forward whose entry for it is garbage")
	}
	if _, ok := r2.execFrom[faulty]; ok {
		t.Error("s1/r2 counted an Execute whose entry for it is garbage")
	}
	c.assertNoExecErrors()
}

// garbageCert returns a copy of cert whose signatures are all zero.
func garbageCert(cert []types.Signed) []types.Signed {
	out := append([]types.Signed(nil), cert...)
	for i := range out {
		out[i].Sig = make([]byte, len(out[i].Sig))
	}
	return out
}

// TestRingTagCertOncePerCst: the previous shard's certificate is verified
// on the first copy only. A copy with a garbage certificate and a valid tag
// is counted once a verified certificate is held, and creates nothing
// before.
func TestRingTagCertOncePerCst(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	held := holdRing(c, b, types.MsgForward, 1)
	bad := clone(held[types.ReplicaNode(0, 0)])
	bad.Cert = garbageCert(bad.Cert)

	before := c.replicas[types.ReplicaNode(1, 1)]
	before.HandleMessage(bad)
	if _, ok := before.csts[d]; ok {
		t.Fatal("a first copy with a garbage certificate created a cst")
	}

	after := c.replicas[types.ReplicaNode(1, 2)]
	good := held[types.ReplicaNode(0, 3)]
	after.HandleMessage(good)
	after.HandleMessage(bad)
	cs := after.csts[d]
	if _, ok := cs.fwdFrom[bad.From]; !ok || len(cs.fwdFrom) != 2 {
		t.Fatalf("copy with a garbage certificate after the held one: senders %v, want both", cs.fwdFrom)
	}
	if !reflect.DeepEqual(cs.fwdCert, good.Cert) {
		t.Fatal("the held certificate was replaced by a later copy's")
	}
}

// TestRingTagInitiatorCert: the wrap-around Forward closes a rotation the
// initiator started, so an initiator replica that has locked the batch
// executes on f+1 copies whose certificates are garbage, spends no Ed25519
// verification and holds no certificate. A replica with nothing of its own
// to stand on — an initiator replica restarted empty, a middle shard —
// verifies the certificate before creating any state, and a verified copy
// is held as the justification as before.
func TestRingTagInitiatorCert(t *testing.T) {
	cases := []struct {
		name  string
		into  types.ShardID // the receiving shard of the held copies
		fresh bool          // the receiver restarts empty before they arrive
		skip  bool          // certificate not looked at
	}{
		{"locked initiator", 0, false, true},
		{"initiator not locked", 0, true, false},
		{"middle shard", 1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 4)
			b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
			d := b.Digest()
			held := holdRing(c, b, types.MsgForward, tc.into)
			id := types.ReplicaNode(tc.into, 1)
			if tc.fresh {
				c.spawn(id)
			}
			r := c.replicas[id]
			counter := &crypto.CountingAuth{Authenticator: r.Verifier.Authenticator}
			r.Verifier.Authenticator = counter
			prev := b.PrevInRing(tc.into)
			lane, other := held[types.ReplicaNode(prev, 1)], held[types.ReplicaNode(prev, 2)]
			for _, m := range []*types.Message{lane, other} {
				bad := clone(m)
				bad.Cert = garbageCert(m.Cert)
				r.HandleMessage(bad)
			}
			cs, ok := r.csts[d]
			if !tc.skip {
				if ok {
					t.Fatal("a copy with a garbage certificate created a cst")
				}
				if counter.Verifies.Load() == 0 {
					t.Fatal("the certificate was not verified")
				}
				r.HandleMessage(lane)
				if cs = r.csts[d]; !reflect.DeepEqual(cs.fwdCert, lane.Cert) {
					t.Fatal("a verified certificate was not held")
				}
				return
			}
			if !ok || !cs.executed {
				t.Fatal("the locked initiator replica did not execute on f+1 wrap-around copies")
			}
			if n := counter.Verifies.Load(); n != 0 {
				t.Fatalf("the locked initiator replica spent %d Verify", n)
			}
			if cs.fwdCert != nil {
				t.Fatal("the locked initiator replica holds a certificate")
			}
		})
	}
}

// TestRingTagNopAuth: under crypto.NopAuth (the nocrypto ablation) tag
// vectors are empty and accepted, and csts still commit on every shard.
func TestRingTagNopAuth(t *testing.T) {
	c := newCluster(t, 3, 4)
	c.nopAuth = true
	for id := range c.replicas {
		c.spawn(id)
	}
	for i, shards := range [][]types.ShardID{{0, 1, 2}, {0, 2}, {1}} {
		b := mkBatch(types.ClientID(i+1), 1, 3, shards, uint64(i+1))
		c.submit(types.ClientID(i+1), b)
		if got := c.responses(types.ClientID(i+1), b.Digest()); got < c.cfg.F()+1 {
			t.Fatalf("batch over %v: %d responses under NopAuth", shards, got)
		}
	}
	c.assertNoExecErrors()
}

// forwardFrom builds a Forward from s0/r0 for sequence seq carrying batch b,
// tagged for shard 1 and signed — or, with badSig, carrying a garbage
// signature. It returns the wire copy and the same Forward without its tag
// vector, which is what an evidence half must record.
func forwardFrom(c *cluster, seq types.SeqNum, b *types.Batch, badSig bool) (wire, plain *types.Message) {
	sender := types.ReplicaNode(0, 0)
	ring, err := c.kg.Ring(sender)
	if err != nil {
		c.t.Fatal(err)
	}
	plain = &types.Message{
		Type: types.MsgForward, From: sender, Shard: 0,
		Seq: seq, Digest: b.Digest(), Batch: b,
	}
	plain.Sig = crypto.SignMessage(ring, plain)
	if badSig {
		plain.Sig = make([]byte, len(plain.Sig))
	}
	wire = clone(plain)
	wire.MAC = c.replicas[sender].ringTags(1, wire)
	return wire, plain
}

// TestConflictingForwardEvidence: conflicting-Forward records are what a
// replica that verified every signature before noting the copy would write,
// although signatures are now checked only when a copy would become
// evidence.
func TestConflictingForwardEvidence(t *testing.T) {
	type copyOf struct {
		batch  int
		badSig bool
	}
	cases := []struct {
		name   string
		copies []copyOf
		want   [2]int // batch indices of the recorded pair; {-1, -1} = no record
	}{
		{"valid d1, valid d2", []copyOf{{1, false}, {2, false}}, [2]int{1, 2}},
		{"bad d1, valid d2, valid d3", []copyOf{{1, true}, {2, false}, {3, false}}, [2]int{2, 3}},
		{"bad d1, valid d2", []copyOf{{1, true}, {2, false}}, [2]int{-1, -1}},
		{"valid d1, bad d2", []copyOf{{1, false}, {2, true}}, [2]int{-1, -1}},
		{"bad d1, valid d1, valid d2", []copyOf{{1, true}, {1, false}, {2, false}}, [2]int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, 4)
			r := c.replicas[types.ReplicaNode(1, 1)]
			plains := map[int]*types.Message{}
			for _, cp := range tc.copies {
				b := mkBatch(1, uint64(cp.batch), 2, []types.ShardID{0, 1}, uint64(cp.batch))
				wire, plain := forwardFrom(c, 7, b, cp.badSig)
				if !cp.badSig {
					plains[cp.batch] = plain
				}
				r.HandleMessage(wire)
			}
			recs := r.Evidence().Records()
			if tc.want[0] < 0 {
				if len(recs) != 0 {
					t.Fatalf("got %d records, want none: %v", len(recs), recs)
				}
				return
			}
			if len(recs) != 1 {
				t.Fatalf("got %d records, want 1", len(recs))
			}
			rec := recs[0]
			want := evidence.Record{
				Kind: evidence.KindConflictingForward, Accused: types.ReplicaNode(0, 0),
				Shard: 1, Seq: 7,
				First:        evidence.MsgOf(plains[tc.want[0]]),
				Second:       evidence.MsgOf(plains[tc.want[1]]),
				Transferable: true,
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("record %+v, want %+v", rec, want)
			}
			if len(rec.First.MAC) != 0 || len(rec.Second.MAC) != 0 {
				t.Fatal("a record half carries tag-vector bytes")
			}
			third, err := c.kg.Ring(types.ReplicaNode(1, 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Reverify(third); err != nil {
				t.Fatalf("record does not reverify on a third replica: %v", err)
			}
		})
	}
}

// TestForwardSeenEvicts: at its cap fwdSeen forgets the oldest (sender,
// sequence) key instead of freezing, so a conflict on a sequence noted
// after eviction began is still recorded, an evicted one is not, and the
// window never grows past the cap.
func TestForwardSeenEvicts(t *testing.T) {
	c := newCluster(t, 2, 4)
	r := c.replicas[types.ReplicaNode(1, 1)]
	r.fwdSeen = newFIFOWindow[fwdKey, evidence.Msg](2)
	batch := func(seq types.SeqNum, alt uint64) *types.Batch {
		return mkBatch(1, uint64(seq)*10+alt, 2, []types.ShardID{0, 1}, alt)
	}
	for seq := types.SeqNum(1); seq <= 3; seq++ {
		wire, _ := forwardFrom(c, seq, batch(seq, 0), false)
		r.HandleMessage(wire)
	}
	if n := len(r.fwdSeen.first); n != 2 {
		t.Fatalf("fwdSeen holds %d keys, cap 2", n)
	}
	evicted, _ := forwardFrom(c, 1, batch(1, 1), false)
	r.HandleMessage(evicted)
	if n := r.Evidence().Len(); n != 0 {
		t.Fatalf("a conflict on an evicted key was recorded (%d records)", n)
	}
	conflict, _ := forwardFrom(c, 3, batch(3, 1), false)
	r.HandleMessage(conflict)
	recs := r.Evidence().Records()
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("records %v, want one for sequence 3", recs)
	}
	if n := len(r.fwdSeen.first); n != 2 {
		t.Fatalf("fwdSeen holds %d keys, cap 2", n)
	}
}

// TestClientSeenEvicts: clientSeen slides the same way. At its cap it
// forgets the oldest client transaction id instead of no longer learning
// new ones, so a conflict on an id first seen after eviction began is still
// recorded, one on an evicted id is not, and the window never grows past
// the cap.
func TestClientSeenEvicts(t *testing.T) {
	c := newCluster(t, 2, 4)
	r := c.replicas[types.ReplicaNode(0, 1)]
	r.clientSeen = newFIFOWindow[types.TxnID, types.Digest](2)
	request := func(seq, alt uint64) {
		b := mkBatch(1, seq, 2, []types.ShardID{0}, alt)
		r.HandleMessage(&types.Message{Type: types.MsgClientRequest, From: types.ClientNode(1), Batch: b, Digest: b.Digest()})
	}
	for seq := uint64(1); seq <= 3; seq++ {
		request(seq, 0)
	}
	if n := len(r.clientSeen.first); n != 2 {
		t.Fatalf("clientSeen holds %d ids, cap 2", n)
	}
	request(1, 1)
	if n := r.Evidence().Len(); n != 0 {
		t.Fatalf("a conflict on an evicted id was recorded (%d records)", n)
	}
	request(3, 1)
	recs := r.Evidence().Records()
	if len(recs) != 1 || recs[0].Kind != evidence.KindConflictingClient || recs[0].Seq != 3 {
		t.Fatalf("records %v, want one client conflict for transaction 3", recs)
	}
	if n := len(r.clientSeen.first); n != 2 {
		t.Fatalf("clientSeen holds %d ids, cap 2", n)
	}
}
