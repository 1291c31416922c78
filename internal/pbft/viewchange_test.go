package pbft

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// justState is the host-level justification layer for a harness: which batch
// digests each replica holds local evidence for (a RingBFT Forward quorum, an
// AHL committee certificate), the transferable certificates backing them, and
// the UnjustifiedNewView rejections each replica reported.
type justState struct {
	voucher     types.NodeID
	voucherRing *crypto.KeyRing
	vouched     []map[types.Digest]bool
	certs       map[types.Digest][]types.Signed
	unjust      map[int][]types.PreparedProof
}

// vouch mints the transferable certificate for b and records local evidence
// at the given replicas (the rest must rely on the carried certificate).
func (js *justState) vouch(b *types.Batch, replicas ...int) {
	d := b.Digest()
	s := types.Signed{From: js.voucher, Type: types.MsgForward, Shard: 0, Digest: d}
	s.Sig = js.voucherRing.Sign(s.SigBytes())
	js.certs[d] = []types.Signed{s}
	for _, i := range replicas {
		js.vouched[i][d] = true
	}
}

// newJustifiedHarness wires n engines whose proposal paths are gated on
// host-level justification, mirroring how ringbft/ahl/sharper hosts install
// the Justify/Justification/VerifyJustification callbacks. It also returns
// the per-replica key rings so tests can forge Byzantine messages.
func newJustifiedHarness(t *testing.T, n int) (*harness, *justState, []*crypto.KeyRing) {
	t.Helper()
	h := &harness{t: t, n: n, shard: 0, commits: make(map[int][]commitRec), views: make(map[int][]types.View)}
	js := &justState{
		voucher: types.ReplicaNode(1, 0),
		vouched: make([]map[types.Digest]bool, n),
		certs:   make(map[types.Digest][]types.Signed),
		unjust:  make(map[int][]types.PreparedProof),
	}
	peers := make([]types.NodeID, n)
	for i := 0; i < n; i++ {
		peers[i] = types.ReplicaNode(0, i)
	}
	kg := crypto.NewKeygen(7)
	for _, p := range peers {
		kg.Register(p)
	}
	kg.Register(js.voucher)
	var err error
	if js.voucherRing, err = kg.Ring(js.voucher); err != nil {
		t.Fatal(err)
	}
	rings := make([]*crypto.KeyRing, n)
	for i := 0; i < n; i++ {
		i := i
		js.vouched[i] = make(map[types.Digest]bool)
		if rings[i], err = kg.Ring(peers[i]); err != nil {
			t.Fatal(err)
		}
		ring := rings[i]
		e := New(0, peers[i], peers, ring, Callbacks{
			Send: func(to types.NodeID, m *types.Message) {
				if h.drop != nil && h.drop(m.From, to, m) {
					return
				}
				h.queue = append(h.queue, routed{to, m})
			},
			Committed: func(seq types.SeqNum, b *types.Batch, d types.Digest, cert *Cert) {
				if d != b.Digest() {
					t.Errorf("replica %d seq %d: Committed digest is not its batch's", i, seq)
				}
				h.commits[i] = append(h.commits[i], commitRec{seq, d, b, cert.Unproven(), cert})
			},
			ViewChanged: func(v types.View) {
				h.views[i] = append(h.views[i], v)
			},
			Justify: func(b *types.Batch, d types.Digest) bool {
				return len(b.Txns) == 0 || js.vouched[i][d]
			},
			Justification: func(b *types.Batch) ([]types.Signed, bool) {
				if !js.vouched[i][b.Digest()] {
					return nil, true
				}
				return js.certs[b.Digest()], true
			},
			VerifyJustification: func(b *types.Batch, cert []types.Signed) bool {
				for k := range cert {
					s := &cert[k]
					if s.From == js.voucher && s.Digest == b.Digest() &&
						ring.Verify(s.From, s.SigBytes(), s.Sig) == nil {
						return true
					}
				}
				return false
			},
			UnjustifiedNewView: func(m *types.Message, p types.PreparedProof) {
				js.unjust[i] = append(js.unjust[i], p)
			},
		}, Options{})
		h.engines = append(h.engines, e)
	}
	return h, js, rings
}

// TestNewViewCarriesJustification: a batch prepared under a Forward-style
// certificate must survive a view change even at a replica that never
// obtained the certificate locally — the NewView re-proposal carries it, the
// receiver verifies it, and commits the byte-identical batch in the new view.
func TestNewViewCarriesJustification(t *testing.T) {
	h, js, _ := newJustifiedHarness(t, 4)
	b := batchOf(5)
	js.vouch(b, 0, 1, 2) // replica 3's Forward quorum never completed

	// Prepare everywhere it can, but let no replica commit in view 0.
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgCommit
	}
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 0 {
			t.Fatalf("replica %d committed prematurely", i)
		}
	}

	h.drop = nil
	for i := 0; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d view = %d, want 1", i, got)
		}
		found := false
		for _, c := range h.commits[i] {
			if c.digest == b.Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d lost the justified batch across the view change", i)
		}
	}
	if len(js.unjust[3]) != 0 {
		t.Fatalf("replica 3 flagged a justified NewView: %+v", js.unjust[3])
	}
}

// TestNewViewReplacesUnverifiedJustification: the ViewChange signature does
// not cover P-set contents, so a faulty voter can claim a higher view for a
// prepared batch, win the selection, and attach a garbage certificate. The
// honest new primary must verify what it relays and replace the garbage
// with its own certificate; otherwise the replica whose own evidence is
// missing rejects the NewView and accuses that honest primary.
func TestNewViewReplacesUnverifiedJustification(t *testing.T) {
	h, js, rings := newJustifiedHarness(t, 4)
	b := batchOf(5)
	js.vouch(b, 0, 1, 2) // replica 3's Forward quorum never completed

	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgCommit
	}
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()

	// Replica 0 turns faulty: from here on it is cut off, and the new
	// primary (replica 1) holds its forged ViewChange before any honest one.
	faulty := types.ReplicaNode(0, 0)
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return from == faulty || to == faulty
	}
	garbage := types.ZeroedCert(js.certs[b.Digest()])
	vc := &types.Message{
		Type: types.MsgViewChange, From: faulty, Shard: 0, View: 1,
		Prepared: []types.PreparedProof{
			{View: 1, Seq: 1, Digest: b.Digest(), Batch: b, Justification: garbage},
		},
	}
	vc.Sig = rings[0].Sign(vc.SigBytes())
	h.engines[1].OnMessage(vc)

	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	if len(js.unjust[3]) != 0 {
		t.Fatalf("replica 3 accused the honest primary: %+v", js.unjust[3])
	}
	for i := 1; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d view = %d, want 1", i, got)
		}
		found := false
		for _, c := range h.commits[i] {
			found = found || c.digest == b.Digest()
		}
		if !found {
			t.Fatalf("replica %d lost the justified batch across the view change", i)
		}
	}
}

// TestUnjustifiedNewViewRejected: a Byzantine new primary injects a batch no
// certificate vouches for through the NewView re-proposal path. Honest
// receivers must reject the whole NewView, surface the offending proof
// through UnjustifiedNewView (the hosts' evidence hook), and escalate past
// the faulty primary to a view that recovers liveness.
func TestUnjustifiedNewViewRejected(t *testing.T) {
	h, js, rings := newJustifiedHarness(t, 4)

	// Capture the signed ViewChange messages for view 1 while keeping them
	// away from replica 1 — the Byzantine primary-elect must not assemble an
	// honest NewView before we forge ours.
	captured := make(map[types.NodeID]*types.Message)
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgViewChange && m.View == 1 {
			captured[m.From] = m
		}
		return to == types.ReplicaNode(0, 1)
	}
	for _, i := range []int{0, 2, 3} {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	if len(captured) < 3 {
		t.Fatalf("captured %d view-change messages, want 3", len(captured))
	}

	// Forge replica 1's NewView: the quorum justification is genuine, but the
	// re-proposal smuggles in an unjustified batch with no certificate.
	evil := batchOf(99)
	nv := &types.Message{
		Type: types.MsgNewView, From: types.ReplicaNode(0, 1), Shard: 0, View: 1,
		Prepared: []types.PreparedProof{
			{View: 0, Seq: 1, Digest: evil.Digest(), Batch: evil},
		},
	}
	for _, from := range types.SortedNodeKeys(captured) {
		vc := captured[from]
		nv.ViewMsgs = append(nv.ViewMsgs, types.Signed{
			From: from, Type: types.MsgViewChange, Shard: 0,
			View: vc.View, Seq: vc.StableSeq, Sig: vc.Sig,
		})
	}
	nv.Sig = rings[1].Sign(nv.SigBytes())

	h.engines[2].OnMessage(nv)
	if got := h.engines[2].View(); got != 0 {
		t.Fatalf("replica 2 installed the unjustified view: view = %d", got)
	}
	if !h.engines[2].InViewChange() {
		t.Fatal("replica 2 abandoned its view change")
	}
	if len(js.unjust[2]) != 1 || js.unjust[2][0].Digest != evil.Digest() {
		t.Fatalf("UnjustifiedNewView evidence missing or wrong: %+v", js.unjust[2])
	}

	// Escalation recovers: the stalled view change times out, the honest
	// replicas target view 2, and its primary (replica 2) restores liveness.
	later := time.Now().Add(time.Second)
	for _, i := range []int{0, 2, 3} {
		h.engines[i].Tick(later)
	}
	h.pump()
	for _, i := range []int{0, 2, 3} {
		if got := h.engines[i].View(); got != 2 {
			t.Fatalf("replica %d view = %d, want 2", i, got)
		}
		if h.engines[i].InViewChange() {
			t.Fatalf("replica %d still in view change", i)
		}
	}
	b := batchOf(7)
	js.vouch(b, 0, 1, 2, 3)
	if !h.engines[2].IsPrimary() {
		t.Fatal("replica 2 should be primary of view 2")
	}
	if _, err := h.engines[2].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for _, i := range []int{0, 2, 3} {
		found := false
		for _, c := range h.commits[i] {
			if c.digest == b.Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d did not commit after escalation", i)
		}
		for _, c := range h.commits[i] {
			if c.digest == evil.Digest() {
				t.Fatalf("replica %d committed the unjustified batch", i)
			}
		}
	}
}

// TestNewViewComparesHeldViewChanges is the tamper table of onNewView's
// compare site: a justification entry equal to a ViewChange the receiver
// verified on arrival costs no Ed25519 check, and an entry whose signature
// or signed tuple differs from the held copy — or that no held copy backs —
// is verified, and if bad it is not counted, so the NewView falls short of
// nf and is rejected.
func TestNewViewComparesHeldViewChanges(t *testing.T) {
	flipped := func(s types.Signed) types.Signed {
		s.Sig = append([]byte(nil), s.Sig...)
		s.Sig[9] ^= 1
		return s
	}
	cases := []struct {
		name    string
		entries func(held map[int]types.Signed, own types.Signed) []types.Signed
		checks  int64 // Ed25519 checks of the entries at replica 2
		install bool
	}{
		{"held copies", func(h map[int]types.Signed, _ types.Signed) []types.Signed {
			return []types.Signed{h[0], h[2], h[3]}
		}, 0, true},
		{"one held sender's signature flipped", func(h map[int]types.Signed, _ types.Signed) []types.Signed {
			return []types.Signed{h[0], h[2], flipped(h[3])}
		}, 1, false},
		{"one held sender's tuple changed", func(h map[int]types.Signed, _ types.Signed) []types.Signed {
			e := h[3]
			e.Seq++
			return []types.Signed{h[0], h[2], e}
		}, 1, false},
		{"a sender with no held copy, valid", func(h map[int]types.Signed, own types.Signed) []types.Signed {
			return []types.Signed{h[0], own, h[3]}
		}, 1, true},
		{"a sender with no held copy, flipped", func(h map[int]types.Signed, own types.Signed) []types.Signed {
			return []types.Signed{h[0], flipped(own), h[3]}
		}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, counters := newCountingHarness(t, 4)
			// Replicas 0, 2 and 3 exchange their ViewChanges for view 1;
			// replica 1, its primary, hears none, so no honest NewView forms.
			held := make(map[int]types.Signed)
			h.drop = func(from, to types.NodeID, m *types.Message) bool {
				if m.Type == types.MsgViewChange {
					held[from.Index] = types.Signed{From: from, Type: m.Type, Shard: m.Shard, View: m.View, Seq: m.Seq, Sig: m.Sig}
				}
				return to.Index == 1
			}
			for _, i := range []int{0, 2, 3} {
				h.engines[i].StartViewChange(1)
			}
			h.pump()
			primary := h.engines[1]
			own := types.Signed{From: primary.self, Type: types.MsgViewChange, Shard: 0, View: 1}
			own.Sig = primary.auth.Sign(own.SigBytes())
			nv := &types.Message{
				Type: types.MsgNewView, From: primary.self, Shard: 0, View: 1,
				ViewMsgs: tc.entries(held, own),
			}
			nv.Sig = crypto.SignMessage(primary.auth, nv)

			before := counters[2].Verifies.Load()
			h.engines[2].OnMessage(nv)
			// One check is the NewView's own signature.
			if got := counters[2].Verifies.Load() - before - 1; got != tc.checks {
				t.Errorf("%d entry checks, want %d", got, tc.checks)
			}
			if installed := h.engines[2].View() == 1; installed != tc.install {
				t.Errorf("installed view 1 = %v, want %v", installed, tc.install)
			}
		})
	}
}

// TestViewChangeComparesHeldCopy: a re-sent ViewChange equal to the one
// held from its sender costs no Ed25519 check; one whose signature differs
// is verified, rejected, and does not replace the held copy.
func TestViewChangeComparesHeldCopy(t *testing.T) {
	h, counters := newCountingHarness(t, 4)
	var sent *types.Message
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgViewChange && from.Index == 0 {
			sent = m
		}
		return true
	}
	h.engines[0].StartViewChange(1)
	h.queue = nil
	r := h.engines[2]
	flipped := *sent
	flipped.Sig = append([]byte(nil), sent.Sig...)
	flipped.Sig[9] ^= 1
	for _, tc := range []struct {
		name   string
		m      *types.Message
		checks int64
	}{
		{"first copy", sent, 1},
		{"identical re-send", sent, 0},
		{"signature flipped", &flipped, 1},
	} {
		before := counters[2].Verifies.Load()
		r.OnMessage(tc.m)
		if got := counters[2].Verifies.Load() - before; got != tc.checks {
			t.Errorf("%s: %d checks, want %d", tc.name, got, tc.checks)
		}
		if r.vcMsgs[1][sent.From] != sent {
			t.Errorf("%s: the held ViewChange is not the first valid copy", tc.name)
		}
	}
}
