package pbft

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// harness wires n engines together through a synchronous in-memory bus.
// Messages are queued and pumped to quiescence, which keeps tests
// deterministic without goroutines.
type harness struct {
	t       *testing.T
	n       int
	shard   types.ShardID
	engines []*Engine
	queue   []routed
	drop    func(from, to types.NodeID, m *types.Message) bool
	commits map[int][]commitRec // per-replica committed (seq, digest)
	views   map[int][]types.View
}

type routed struct {
	to types.NodeID
	m  *types.Message
}

type commitRec struct {
	seq    types.SeqNum
	digest types.Digest
	batch  *types.Batch
	cert   []types.Signed // held.Unproven()
	held   *Cert
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	return newHarnessAuth(t, n, func(_ int, a crypto.Authenticator) crypto.Authenticator { return a })
}

// newHarnessAuth is newHarness with every replica's key ring passed through
// wrap first (counting authenticators, see sigeconomy_test.go).
func newHarnessAuth(t *testing.T, n int, wrap func(i int, a crypto.Authenticator) crypto.Authenticator) *harness {
	t.Helper()
	h := &harness{t: t, n: n, shard: 0, commits: make(map[int][]commitRec), views: make(map[int][]types.View)}
	peers := make([]types.NodeID, n)
	for i := 0; i < n; i++ {
		peers[i] = types.ReplicaNode(0, i)
	}
	kg := crypto.NewKeygen(42)
	for _, p := range peers {
		kg.Register(p)
	}
	for i := 0; i < n; i++ {
		i := i
		ring, err := kg.Ring(peers[i])
		if err != nil {
			t.Fatal(err)
		}
		e := New(0, peers[i], peers, wrap(i, ring), Callbacks{
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
		}, Options{})
		h.engines = append(h.engines, e)
	}
	return h
}

// pump delivers queued messages until quiescence.
func (h *harness) pump() {
	for len(h.queue) > 0 {
		q := h.queue
		h.queue = nil
		for _, r := range q {
			h.engines[r.to.Index].OnMessage(r.m)
		}
	}
}

func batchOf(seed uint64) *types.Batch {
	return &types.Batch{
		Txns:     []types.Txn{{ID: types.TxnID{Client: 1, Seq: seed}, Writes: []types.Key{types.Key(seed)}, Delta: 1}},
		Involved: []types.ShardID{0},
	}
}

// crossBatchOf is batchOf spanning shards 0 and 1: committing it must yield
// a transferable certificate, so its Commits are signed.
func crossBatchOf(seed uint64) *types.Batch {
	b := batchOf(seed)
	b.Involved = []types.ShardID{0, 1}
	return b
}

func TestNormalCaseCommit(t *testing.T) {
	h := newHarness(t, 4)
	b := batchOf(1)
	seq, err := h.engines[0].Propose(b)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d batches, want 1", i, len(h.commits[i]))
		}
		c := h.commits[i][0]
		if c.seq != 1 || c.digest != b.Digest() {
			t.Fatalf("replica %d committed wrong entry: %+v", i, c)
		}
		if c.cert != nil {
			t.Fatalf("replica %d: single-shard commit carries a %d-entry certificate, want none", i, len(c.cert))
		}
	}
}

func TestNonPrimaryCannotPropose(t *testing.T) {
	h := newHarness(t, 4)
	if _, err := h.engines[1].Propose(batchOf(1)); err == nil {
		t.Fatal("expected error proposing from non-primary")
	}
}

func TestPipelinedProposals(t *testing.T) {
	h := newHarness(t, 4)
	const k = 20
	digests := make([]types.Digest, k)
	for i := 0; i < k; i++ {
		b := batchOf(uint64(i + 1))
		digests[i] = b.Digest()
		if _, err := h.engines[0].Propose(b); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != k {
			t.Fatalf("replica %d committed %d, want %d", i, len(h.commits[i]), k)
		}
		seen := make(map[types.SeqNum]types.Digest)
		for _, c := range h.commits[i] {
			seen[c.seq] = c.digest
		}
		for s := 1; s <= k; s++ {
			if seen[types.SeqNum(s)] != digests[s-1] {
				t.Fatalf("replica %d seq %d digest mismatch", i, s)
			}
		}
	}
}

// TestAgreementUnderPartition checks Proposition 6.1: with one replica cut
// off, the remaining nf still commit, and no two replicas commit different
// digests at the same sequence.
func TestAgreementUnderPartition(t *testing.T) {
	h := newHarness(t, 4)
	dead := types.ReplicaNode(0, 3)
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return from == dead || to == dead
	}
	b := batchOf(7)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 3; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d, want 1", i, len(h.commits[i]))
		}
	}
	if len(h.commits[3]) != 0 {
		t.Fatal("partitioned replica should not commit")
	}
}

func TestConflictingPrePrepareRejected(t *testing.T) {
	h := newHarness(t, 4)
	// Primary proposes batch A; a forged pre-prepare with batch B at the
	// same sequence must not displace it.
	a := batchOf(1)
	if _, err := h.engines[0].Propose(a); err != nil {
		t.Fatal(err)
	}
	h.pump()
	forged := &types.Message{
		Type: types.MsgPrePrepare, From: types.ReplicaNode(0, 0), Shard: 0,
		View: 0, Seq: 1, Digest: batchOf(2).Digest(), Batch: batchOf(2),
	}
	h.engines[1].OnMessage(forged) // bad MAC and conflicting: dropped
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 1 || h.commits[i][0].digest != a.Digest() {
			t.Fatalf("replica %d state corrupted by forged pre-prepare", i)
		}
	}
}

func TestVerifyCert(t *testing.T) {
	h := newHarness(t, 4)
	b := crossBatchOf(3)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	cert := h.commits[1][0].cert
	if len(cert) != h.engines[1].NF() {
		t.Fatalf("cross-shard commit certificate has %d entries, want %d", len(cert), h.engines[1].NF())
	}
	auth := h.engines[2].auth // any ring works for verification
	if _, err := VerifyCert(auth, 0, b.Digest(), cert, 3, nil); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	// Tampered digest must fail.
	if _, err := VerifyCert(auth, 0, crossBatchOf(4).Digest(), cert, 3, nil); err == nil {
		t.Fatal("tampered cert accepted")
	}
	// Truncated cert must fail.
	if _, err := VerifyCert(auth, 0, b.Digest(), cert[:2], 3, nil); err == nil {
		t.Fatal("truncated cert accepted")
	}
	// Duplicate signers must not double-count.
	dup := []types.Signed{cert[0], cert[0], cert[0]}
	if _, err := VerifyCert(auth, 0, b.Digest(), dup, 3, nil); err == nil {
		t.Fatal("duplicate-signer cert accepted")
	}
}

func TestViewChangeElectsNextPrimary(t *testing.T) {
	h := newHarness(t, 4)
	// Primary 0 is silent. Replicas 1..3 time out and start a view change.
	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 1; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d view = %d, want 1", i, got)
		}
		if h.engines[i].InViewChange() {
			t.Fatalf("replica %d still in view change", i)
		}
	}
	// New primary is replica 1; it can propose and commit.
	if !h.engines[1].IsPrimary() {
		t.Fatal("replica 1 should be primary of view 1")
	}
	b := batchOf(9)
	if _, err := h.engines[1].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 1; i < 4; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d after view change, want 1", i, len(h.commits[i]))
		}
	}
}

// TestViewChangePreservesPrepared: a batch that prepared before the view
// change must commit (with the same digest) in the new view — the heart of
// PBFT safety across views.
func TestViewChangePreservesPrepared(t *testing.T) {
	h := newHarness(t, 4)
	b := batchOf(5)

	// Let the batch prepare everywhere but drop all Commit messages, so no
	// replica commits in view 0.
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

	// Heal the network and change view.
	h.drop = nil
	for i := 0; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		found := false
		for _, c := range h.commits[i] {
			if c.digest == b.Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d lost prepared batch across view change", i)
		}
	}
}

// TestViewChangeProofContent: the ViewChange signature does not cover
// P-set contents, so a proof whose batch is not the digest it names is
// skipped by the new primary's selection, and a NewView re-proposing one
// is rejected: the digest an entry commits under is always its batch's.
func TestViewChangeProofContent(t *testing.T) {
	h := newHarness(t, 4)
	b, forged := batchOf(5), batchOf(6)
	h.drop = func(_, _ types.NodeID, m *types.Message) bool { return m.Type == types.MsgCommit }
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	h.drop = func(from, _ types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgViewChange && from == types.ReplicaNode(0, 0) && len(m.Prepared) > 0 {
			// Replica 0's proof travels with another body under b's digest;
			// sorted first, it would win the selection.
			m.Prepared = append([]types.PreparedProof(nil), m.Prepared...)
			m.Prepared[0].Batch = forged
		}
		return false
	}
	for i := 0; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d view = %d, want 1", i, got)
		}
		if len(h.commits[i]) != 1 || h.commits[i][0].digest != b.Digest() || !h.commits[i][0].batch.Equal(b) {
			t.Fatalf("replica %d did not commit the prepared batch: %+v", i, h.commits[i])
		}
	}

	// A NewView whose re-proposal carries another body under b's digest is
	// rejected outright.
	h2 := newHarness(t, 4)
	captured := make(map[types.NodeID]*types.Message)
	h2.drop = func(from, to types.NodeID, m *types.Message) bool {
		if m.Type == types.MsgViewChange && m.View == 1 {
			captured[m.From] = m
		}
		return to == types.ReplicaNode(0, 1)
	}
	for _, i := range []int{0, 2, 3} {
		h2.engines[i].StartViewChange(1)
	}
	h2.pump()
	nv := &types.Message{
		Type: types.MsgNewView, From: types.ReplicaNode(0, 1), Shard: 0, View: 1,
		Prepared: []types.PreparedProof{{View: 0, Seq: 1, Digest: b.Digest(), Batch: forged}},
	}
	for _, from := range types.SortedNodeKeys(captured) {
		vc := captured[from]
		nv.ViewMsgs = append(nv.ViewMsgs, types.Signed{
			From: from, Type: types.MsgViewChange, Shard: 0, View: vc.View, Seq: vc.StableSeq, Sig: vc.Sig,
		})
	}
	kg := crypto.NewKeygen(42) // newHarness's keys
	for i := 0; i < 4; i++ {
		kg.Register(types.ReplicaNode(0, i))
	}
	ring, err := kg.Ring(types.ReplicaNode(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	nv.Sig = ring.Sign(nv.SigBytes())
	h2.engines[2].OnMessage(nv)
	if got := h2.engines[2].View(); got != 0 {
		t.Fatalf("replica 2 installed a NewView whose re-proposal does not match its digest: view = %d", got)
	}
}

func TestJoinRuleFPlus1(t *testing.T) {
	h := newHarness(t, 7) // f = 2
	// Only f+1 = 3 replicas time out; the join rule must pull the rest in.
	for i := 1; i <= 3; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	inNew := 0
	for i := 0; i < 7; i++ {
		if h.engines[i].View() == 1 {
			inNew++
		}
	}
	if inNew < h.engines[0].NF() {
		t.Fatalf("only %d replicas reached view 1, want >= %d", inNew, h.engines[0].NF())
	}
}

func TestCheckpointGarbageCollects(t *testing.T) {
	h := newHarness(t, 4)
	const k = 10
	for i := 0; i < k; i++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	state := types.Digest{1, 2, 3}
	for i := 0; i < 4; i++ {
		h.engines[i].MakeCheckpoint(types.SeqNum(k), state)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].StableSeq(); got != k {
			t.Fatalf("replica %d stableSeq = %d, want %d", i, got, k)
		}
		if h.engines[i].LogSize() != 0 {
			t.Fatalf("replica %d log not garbage-collected: %d entries", i, h.engines[i].LogSize())
		}
	}
}

func TestTickEscalatesStalledViewChange(t *testing.T) {
	h := newHarness(t, 4)
	// Replica 2 starts a view change for view 1, but nobody else joins and
	// no NewView arrives. After the view timeout it must target view 2.
	e := h.engines[2]
	e.StartViewChange(1)
	e.Tick(time.Now().Add(time.Second))
	if e.vcTarget != 2 {
		t.Fatalf("vcTarget = %d, want 2", e.vcTarget)
	}
}

func TestWindowBoundsProposals(t *testing.T) {
	h := newHarness(t, 4)
	e := h.engines[0]
	e.window = 4
	for i := 0; i < 4; i++ {
		if _, err := e.Propose(batchOf(uint64(i))); err != nil {
			t.Fatalf("propose %d within window: %v", i, err)
		}
	}
	if _, err := e.Propose(batchOf(99)); err == nil {
		t.Fatal("proposal beyond window accepted")
	}
}

// TestAboveWindowStashedUntilStable: the primary slides its window on the
// first nf checkpoint votes and may propose a sequence that a backup still
// assembling the same quorum sees as above its high watermark. The backup
// stashes that traffic instead of dropping it — nothing would retransmit the
// PrePrepare — and replays it once its own watermark advances: from the next
// OnMessage, never from inside MakeCheckpoint, which hosts call from their
// Committed callback.
func TestAboveWindowStashedUntilStable(t *testing.T) {
	h := newHarness(t, 4)
	for _, e := range h.engines {
		e.window = 4
	}
	// Checkpoint votes addressed to replica 3 are held back.
	var held []*types.Message
	h.drop = func(_, to types.NodeID, m *types.Message) bool {
		if to.Index == 3 && m.Type == types.MsgCheckpoint {
			held = append(held, m)
			return true
		}
		return false
	}
	for i := 1; i <= 4; i++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	state := types.Digest{4}
	for i := 0; i < 3; i++ {
		h.engines[i].MakeCheckpoint(4, state)
	}
	h.pump()
	if got := h.engines[0].StableSeq(); got != 4 {
		t.Fatalf("primary stableSeq = %d, want 4", got)
	}
	if _, err := h.engines[0].Propose(batchOf(5)); err != nil {
		t.Fatalf("propose past the old window: %v", err)
	}
	h.pump()
	if len(h.commits[0]) != 5 || len(h.commits[3]) != 4 {
		t.Fatalf("before replica 3 stabilizes: primary committed %d (want 5), replica 3 committed %d (want 4)",
			len(h.commits[0]), len(h.commits[3]))
	}
	// Two held votes plus replica 3's own make its quorum inside
	// MakeCheckpoint: the watermark moves, but the replay waits.
	h.engines[3].OnMessage(held[0])
	h.engines[3].OnMessage(held[1])
	h.engines[3].MakeCheckpoint(4, state)
	if got := h.engines[3].StableSeq(); got != 4 {
		t.Fatalf("replica 3 stableSeq = %d, want 4", got)
	}
	if len(h.commits[3]) != 4 {
		t.Fatalf("replica 3 committed %d inside MakeCheckpoint, want the replay deferred", len(h.commits[3]))
	}
	h.engines[3].OnMessage(held[2]) // stale vote; any message triggers the replay
	h.pump()
	if len(h.commits[3]) != 5 || h.commits[3][4].seq != 5 {
		t.Fatalf("replica 3 committed %d batches after its window slid, want 5", len(h.commits[3]))
	}
	// Further than one window above the watermark is still dropped.
	far := &types.Message{Type: types.MsgPrepare, From: h.engines[1].self, Shard: h.shard, Seq: 4 + 2*4 + 1}
	h.engines[3].OnMessage(far)
	if len(h.engines[3].future) != 0 {
		t.Fatalf("a message two windows ahead was stashed")
	}
}

// TestViewChangeAfterCheckpoint is a regression test: the ViewChange
// signature must remain verifiable inside the NewView justification after
// the stable checkpoint has advanced past zero (the signed tuple covers the
// stable sequence).
func TestViewChangeAfterCheckpoint(t *testing.T) {
	h := newHarness(t, 4)
	const k = 10
	for i := 1; i <= k; i++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	state := types.Digest{9}
	for i := 0; i < 4; i++ {
		h.engines[i].MakeCheckpoint(k, state)
	}
	h.pump()
	if h.engines[2].StableSeq() != k {
		t.Fatalf("checkpoint did not stabilize")
	}
	// Now view-change: every replica must install view 1, not just the new
	// primary.
	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d stuck in view %d after checkpointed view change", i, got)
		}
		if h.engines[i].InViewChange() {
			t.Fatalf("replica %d still in view change", i)
		}
	}
	// And the new view must make progress.
	if _, err := h.engines[1].Propose(batchOf(99)); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		found := false
		for _, c := range h.commits[i] {
			if c.digest == batchOf(99).Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d did not commit in the new view", i)
		}
	}
}
