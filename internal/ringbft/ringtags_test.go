package ringbft

import (
	"reflect"
	"testing"
	"time"

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
// s1/r1 is about to receive, or the shard the copy speaks for, tagged anew
// by its sender: a tag that verifies does not admit a copy the sender's
// shard could not have sent.
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
	{"speaks for another shard", func(c *cluster, m *types.Message) {
		m.Shard = 2
		m.MAC = c.replicas[m.From].ringTags(1, m)
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

// countVerifies puts a counter between r's ring layer and its key ring: it
// counts the Ed25519 work of Forward, Execute and certificate handling (the
// engine keeps its own reference to the ring).
func countVerifies(r *Replica) *crypto.CountingAuth {
	counter := &crypto.CountingAuth{Authenticator: r.Auth}
	r.Auth = counter
	return counter
}

// TestRingTagCertOncePerCst: counting verifies no certificate, and the
// previous shard's certificate is proven once per cst, where it is
// consumed. At a middle shard, f+1 copies of which the first carries a
// garbage certificate are accepted with no Ed25519 verification;
// Justification then skips the garbage candidate and returns the valid
// certificate, and a second call costs nothing.
func TestRingTagCertOncePerCst(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
	d := b.Digest()
	held := holdRing(c, b, types.MsgForward, 1)
	r := c.replicas[types.ReplicaNode(1, 1)]
	counter := countVerifies(r)
	bad := clone(held[types.ReplicaNode(0, 1)])
	bad.Cert = types.ZeroedCert(bad.Cert)
	good := held[types.ReplicaNode(0, 2)]

	r.HandleMessage(bad)
	r.HandleMessage(good)
	cs := r.csts[d]
	if cs == nil || !r.accepted(len(cs.fwdFrom)) {
		t.Fatal("f+1 tag-authenticated copies were not accepted")
	}
	if n := counter.Verifies.Load(); n != 0 {
		t.Fatalf("counting f+1 copies spent %d Verify", n)
	}
	if cs.fwdCert != nil {
		t.Fatal("a certificate was proven before anything consumed it")
	}

	if got, _ := r.justification(b); !reflect.DeepEqual(got, good.Cert) {
		t.Fatal("Justification did not return the valid candidate")
	}
	if counter.Verifies.Load() == 0 {
		t.Fatal("Justification returned a certificate it did not verify")
	}
	spent := counter.Verifies.Load()
	if got, _ := r.justification(b); !reflect.DeepEqual(got, good.Cert) {
		t.Fatal("a second Justification lost the proven certificate")
	}
	if n := counter.Verifies.Load() - spent; n != 0 {
		t.Fatalf("a second Justification spent %d Verify", n)
	}
}

// TestJustificationComparesHeldSignatures: once a previous-shard
// certificate verified for a cst, a NewView justification carrying the same
// signatures is compared, not verified, while an entry whose signature
// differs from every held one is verified and, if bad, not counted — the
// justification falls short of nf and is rejected.
func TestJustificationComparesHeldSignatures(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
	held := holdRing(c, b, types.MsgForward, 1)
	r := c.replicas[types.ReplicaNode(1, 1)]
	counter := countVerifies(r)
	r.HandleMessage(held[types.ReplicaNode(0, 1)])
	r.HandleMessage(held[types.ReplicaNode(0, 2)])
	proven, _ := r.justification(b)
	if proven == nil {
		t.Fatal("Justification proved no candidate")
	}
	flipped := append([]types.Signed(nil), proven...)
	flipped[0].Sig = append([]byte(nil), flipped[0].Sig...)
	flipped[0].Sig[7] ^= 1
	for _, tc := range []struct {
		name   string
		just   []types.Signed
		checks int64
		ok     bool
	}{
		{"the proven certificate", proven, 0, true},
		{"one entry flipped", flipped, 1, false},
		{"one entry zeroed", append(types.ZeroedCert(proven[:1]), proven[1:]...), 1, false},
	} {
		before := counter.Verifies.Load()
		if ok := r.verifyJustification(b, tc.just); ok != tc.ok {
			t.Errorf("%s: accepted = %v, want %v", tc.name, ok, tc.ok)
		}
		if got := counter.Verifies.Load() - before; got != tc.checks {
			t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
		}
	}
}

// TestRemoteViewComparesHeldCopy: a re-sent RemoteView equal to the
// complaint held from its sender costs no Ed25519 check and is answered
// like the first; one whose signature or signed tuple differs is verified,
// rejected, and does not replace the held complaint.
func TestRemoteViewComparesHeldCopy(t *testing.T) {
	c := newCluster(t, 2, 4)
	b := mkBatch(1, 1, 2, []types.ShardID{0, 1}, 2)
	d := b.Digest()
	c.submit(1, b)
	r := c.replicas[types.ReplicaNode(0, 1)]
	if cs := r.csts[d]; cs == nil || !cs.executed {
		t.Fatal("the cst did not execute at the complaint's receiver")
	}
	counter := countVerifies(r)
	next := types.ReplicaNode(1, 1)
	complaint := &types.Message{Type: types.MsgRemoteView, From: next, Shard: 1, Digest: d, Batch: b}
	ring, err := c.kg.Ring(next)
	if err != nil {
		t.Fatal(err)
	}
	complaint.Sig = ring.Sign(complaint.AppendSigBytes(nil))
	flipped := *complaint
	flipped.Sig = append([]byte(nil), complaint.Sig...)
	flipped.Sig[9] ^= 1
	otherView := *complaint
	otherView.View++
	for _, tc := range []struct {
		name   string
		m      *types.Message
		checks int64
		ok     bool
	}{
		{"first complaint", complaint, 1, true},
		{"identical re-send", complaint, 0, true},
		{"signature flipped", &flipped, 1, false},
		{"signed tuple changed", &otherView, 1, false},
	} {
		c.queue = c.queue[:0]
		before := counter.Verifies.Load()
		r.HandleMessage(tc.m)
		if got := counter.Verifies.Load() - before; got != tc.checks {
			t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
		}
		// An executed replica answers every accepted complaint with its Execute.
		if answered := sentTo(c, types.MsgExecute, next) != nil; answered != tc.ok {
			t.Errorf("%s: answered = %v, want %v", tc.name, answered, tc.ok)
		}
		if r.csts[d].remoteComplaints[next].msg != complaint {
			t.Errorf("%s: the held complaint is not the first valid one", tc.name)
		}
	}
}

// TestRingTagInitiatorCert: every shard counts the same way. At a locked
// initiator replica (the wrap-around Forward), an initiator replica
// restarted empty and a middle shard, f+1 copies whose certificates are
// all garbage are accepted with no Ed25519 verification and no certificate
// held, the locked initiator executes, and each of the n counted senders
// leaves exactly one candidate.
func TestRingTagInitiatorCert(t *testing.T) {
	cases := []struct {
		name  string
		into  types.ShardID // the receiving shard of the held copies
		fresh bool          // the receiver restarts empty before they arrive
	}{
		{"locked initiator", 0, false},
		{"initiator not locked", 0, true},
		{"middle shard", 1, false},
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
			counter := countVerifies(r)
			prev := b.PrevInRing(tc.into)
			for i := 0; i < c.n; i++ {
				bad := clone(held[types.ReplicaNode(prev, i)])
				bad.Cert = types.ZeroedCert(bad.Cert)
				r.HandleMessage(bad)
				r.HandleMessage(bad) // a duplicate adds nothing
			}
			cs := r.csts[d]
			if cs == nil || !r.accepted(len(cs.fwdFrom)) {
				t.Fatal("f+1 tag-authenticated copies were not accepted")
			}
			if n := counter.Verifies.Load(); n != 0 {
				t.Fatalf("counting spent %d Verify", n)
			}
			if cs.fwdCert != nil {
				t.Fatal("a certificate is held although nothing consumed one")
			}
			if got := len(cs.fwdCands); got != c.n {
				t.Fatalf("%d candidates kept from %d senders, want one each", got, c.n)
			}
			if want := tc.into == 0 && !tc.fresh; cs.executed != want {
				t.Fatalf("executed = %v, want %v", cs.executed, want)
			}
		})
	}
}

// TestRingTagSwappedCert: neither the tag nor the Forward signature covers
// the certificate, so a faulty relayer can swap it on an honest sender's
// copy and that copy still counts. Every counted sender's certificate stays
// a candidate until one is proven, and a later copy of a counted sender
// whose certificate differs is verified on arrival, so the valid
// certificate is never lost to the cap or the dedup.
func TestRingTagSwappedCert(t *testing.T) {
	c := newCluster(t, 3, 4)
	b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
	d := b.Digest()
	held := holdRing(c, b, types.MsgForward, 1)
	swapped := func(i int) *types.Message {
		m := clone(held[types.ReplicaNode(0, i)])
		m.Cert = types.ZeroedCert(m.Cert)
		return m
	}

	t.Run("later sender", func(t *testing.T) {
		r := c.replicas[types.ReplicaNode(1, 1)]
		r.HandleMessage(swapped(2)) // a faulty sender's garbage
		r.HandleMessage(swapped(3)) // an honest sender's copy, swapped by its relayer
		if cs := r.csts[d]; cs == nil || !r.accepted(len(cs.fwdFrom)) {
			t.Fatal("f+1 tag-authenticated copies were not accepted")
		}
		if got, _ := r.justification(b); got != nil {
			t.Fatal("Justification returned a garbage certificate")
		}
		lane := held[types.ReplicaNode(0, 1)]
		r.HandleMessage(lane)
		if got, _ := r.justification(b); !reflect.DeepEqual(got, lane.Cert) {
			t.Fatal("the valid certificate of a sender counted after f+1 was not kept")
		}
	})

	t.Run("later copy of a counted sender", func(t *testing.T) {
		r := c.replicas[types.ReplicaNode(1, 2)]
		counter := countVerifies(r)
		r.HandleMessage(swapped(3))
		r.HandleMessage(swapped(3))
		if n := counter.Verifies.Load(); n != 0 {
			t.Fatalf("a copy carrying a held candidate spent %d Verify", n)
		}
		valid := held[types.ReplicaNode(0, 3)]
		r.HandleMessage(valid)
		if got := r.csts[d].fwdCert; !reflect.DeepEqual(got, valid.Cert) {
			t.Fatal("a valid copy of a counted sender was lost to the dedup")
		}
	})
}

// TestSettledCstDropsCandidates: once a stable checkpoint covers an executed
// cst, no view change carries it again, so its certificate candidates are
// dropped, and a straggler copy arriving after that keeps none and costs no
// Verify.
func TestSettledCstDropsCandidates(t *testing.T) {
	c := newClusterWith(t, 2, 4, func(cfg *types.Config) { cfg.CheckpointInterval = 2 })
	late := types.ReplicaNode(0, 3)
	var held *types.Message
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgForward && m.From == late && to.Shard == 1 && m.Seq == 1 {
			held = m
			return true
		}
		return false
	}
	for i := uint64(1); i <= 4; i++ {
		c.submit(1, mkBatch(1, i, 2, []types.ShardID{0, 1}, i))
	}
	c.drop = nil
	if held == nil {
		t.Fatal("no Forward held")
	}
	r := c.replicas[types.ReplicaNode(1, 1)]
	stable := r.PBFT.StableSeq()
	if stable < 2 {
		t.Fatalf("stable checkpoint %d, want at least 2", stable)
	}
	for d, cs := range r.csts {
		if !cs.executed {
			t.Fatalf("cst %x did not execute", d[:4])
		}
		if covered := cs.seq <= stable; cs.settled != covered || covered && cs.fwdCands != nil {
			t.Fatalf("cst at seq %d under stable %d: settled %v, %d candidates", cs.seq, stable, cs.settled, len(cs.fwdCands))
		}
	}
	for _, cs := range r.unsettled {
		if cs.seq <= stable {
			t.Fatalf("cst at seq %d is still unsettled under stable %d", cs.seq, stable)
		}
	}

	counter := countVerifies(r)
	r.HandleMessage(held)
	r.HandleMessage(held) // and its retransmission
	cs := r.csts[held.Digest]
	if _, ok := cs.fwdFrom[late]; !ok || !cs.settled {
		t.Fatal("the straggler copy was not counted into its settled cst")
	}
	if len(cs.fwdCands) != 0 || counter.Verifies.Load() != 0 {
		t.Fatalf("a straggler copy after settling kept %d candidates and spent %d Verify", len(cs.fwdCands), counter.Verifies.Load())
	}
}

// TestRingTagRemoteTimerProof: a first-rotation complaint needs a proven
// certificate. A lone copy arms the remote timer either way; with a garbage
// certificate no RemoteView is ever sent, with a valid one a RemoteView
// leaves after RemoteTimeout.
func TestRingTagRemoteTimerProof(t *testing.T) {
	cases := []struct {
		name    string
		garbage bool
	}{
		{"garbage certificate", true},
		{"valid certificate", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 4)
			b := mkBatch(1, 1, 3, []types.ShardID{0, 1, 2}, 2)
			d := b.Digest()
			held := holdRing(c, b, types.MsgForward, 1)
			r := c.replicas[types.ReplicaNode(1, 1)]
			m := clone(held[types.ReplicaNode(0, 1)])
			if tc.garbage {
				m.Cert = types.ZeroedCert(m.Cert)
			}
			r.HandleMessage(m)
			if cs := r.csts[d]; cs == nil || cs.fwdFirst.IsZero() {
				t.Fatal("a lone copy did not arm the remote timer")
			}
			complaints := 0
			for i := 0; i < 3; i++ {
				c.queue = c.queue[:0]
				c.now = c.now.Add(c.cfg.RemoteTimeout + time.Millisecond)
				r.HandleTick(c.now)
				for _, q := range c.queue {
					if q.m.Type == types.MsgRemoteView && q.m.Digest == d {
						complaints++
					}
				}
			}
			if tc.garbage && complaints != 0 {
				t.Fatalf("%d RemoteViews sent on a garbage certificate", complaints)
			}
			if !tc.garbage && complaints != 3 {
				t.Fatalf("%d RemoteViews over 3 remote timeouts, want 3", complaints)
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
