// Package ringbft implements the paper's primary contribution: the RingBFT
// meta-protocol for sharded-replicated permissioned blockchains (Section 4).
//
// Each shard runs an intra-shard PBFT engine (package pbft) unchanged; this
// package adds the cross-shard machinery on top:
//
//   - ring order: cross-shard transactions visit their involved shards in
//     ascending shard-identifier order, initiated by the lowest;
//   - sequence-ordered data locking with the π pending list and k_max
//     watermark (Fig 5 lines 14-28, Example 4.4), which yields deadlock
//     freedom (Theorem 6.2);
//   - the linear communication primitive: replica i of a shard talks only
//     to replica i of the next shard, and receivers locally re-share and
//     accept on f+1 matching copies (Section 4.3.6);
//   - process–forward–retransmit: Forward messages carry the batch, the nf
//     signed Commit certificate, and the accumulated read sets; Execute
//     messages drive the second rotation carrying Σ (Section 4.3.7);
//   - recovery: local timers (PBFT view change), remote view change
//     (Fig 6), and Forward retransmission (Section 5.1.1).
package ringbft

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/host"
	"ringbft/internal/metrics"
	"ringbft/internal/pbft"
	"ringbft/internal/store"
	"ringbft/internal/trace"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// Sender abstracts the network so replicas run over simnet or tcpnet.
type Sender = host.Sender

// Replica is one RingBFT replica: a PBFT participant of its shard plus the
// ring layer. Drive it with Run, or feed it directly with HandleMessage and
// HandleTick from a deterministic test harness.
type Replica struct {
	host.Replica
	allToAll bool
	locks    *store.LockTable

	// Lock-order state (Fig 5): lockQueue holds committed entries awaiting
	// lock acquisition strictly in sequence order. The host's Tracker
	// folds that order: its contiguous watermark is k_max, the highest
	// sequence that acquired locks (see kmax), and its rolling prefix
	// digest — deterministic across replicas even when non-conflicting
	// executions interleave differently (Section 7) — forms the checkpoint
	// digest together with the canonical state digest (host/checkpoint.go).
	lockQueue map[types.SeqNum]*logEntry

	// csts tracks every cross-shard transaction this replica has seen, by
	// batch digest. live holds the ones whose remote or transmit timer can
	// still fire: HandleTick walks only those, dropping each cst that
	// executed with its Forward accepted or its remote timer never armed,
	// and armRemote puts one back.
	csts map[types.Digest]*cstState
	live map[types.Digest]*cstState
	// unsettled holds the executed csts that may still keep certificate
	// candidates; settleBelow drops them once a stable checkpoint covers
	// the cst.
	unsettled []*cstState

	// clientSeen remembers the first batch digest observed per client
	// transaction id: a client re-submitting the same payload is a legal
	// retransmission (attack A1, answered from the executed cache), but two
	// different payloads under one id is client equivocation and gets an
	// evidence record. Bounded by clientSeenCap, oldest id evicted first.
	clientSeen *fifoWindow[types.TxnID, types.Digest]

	// fwdSeen remembers the first signed Forward per (sender, sequence): an
	// honest previous-shard replica signs exactly one Forward digest per
	// committed sequence, so a second digest under the same key indicts the
	// sender with a transferable signature pair. Bounded by fwdSeenCap,
	// oldest entry evicted first.
	fwdSeen *fifoWindow[fwdKey, evidence.Msg]

	// Executed-prefix watermark: execSeq is the highest sequence such that
	// every block at or below it has executed locally; execDone holds
	// out-of-order completions above it. The Tracker schedules checkpoints
	// at lock time and the host signs each once execSeq covers it, because
	// the canonical state digest needs every covered block applied.
	execSeq  types.SeqNum
	execDone map[types.SeqNum]struct{}

	// recovered reports whether Preload resumed from disk.
	recovered bool

	// ring holds the ring layer's own instruments; the host's live in
	// r.Obs. Stats reads both.
	ring ringMetrics
}

// logEntry is a committed batch waiting in the lock queue. digest is the
// engine's; keys, this shard's lock set of the batch, is derived on the
// first TryLock attempt and reused by every head-of-line retry and by the
// Unlock that releases it.
type logEntry struct {
	seq    types.SeqNum
	batch  *types.Batch
	digest types.Digest
	cert   *pbft.Cert
	keys   []types.Key
}

// fwdKey identifies one sender's Forward claim for one sequence.
type fwdKey struct {
	from types.NodeID
	seq  types.SeqNum
}

// Tracking caps for the misbehavior-detection windows. Past its cap each
// forgets its oldest key for every new one: clientSeen a client transaction
// id, fwdSeen a (sender, sequence) pair.
const (
	clientSeenCap = 1 << 16
	fwdSeenCap    = 1 << 16
)

// cstState is the per-replica lifecycle of one cross-shard batch.
type cstState struct {
	digest types.Digest
	batch  *types.Batch
	seq    types.SeqNum
	// keys is the lock set afterLocked acquired for the batch; executeCst
	// releases exactly these.
	keys []types.Key
	// cert is this shard's own commit certificate, as the engine decided it:
	// its signatures are unverified until proveForward proves it.
	cert *pbft.Cert

	// fwdCert is the PREVIOUS shard's commit certificate, proven by
	// provenCert. cert above is this shard's own — the two differ, and it is
	// fwdCert that proves to others that proposing the batch here was
	// justified (pbft.Callbacks.Justification attaches it to view-change
	// P-set proofs so a NewView can prove justification to replicas whose
	// own Forward quorum never completed). Counting needs no certificate, so
	// it stays nil until one is consumed: on a fault-free run, always.
	//
	// fwdCands holds, until one is proven, the certificate carried by each
	// counted Forward sender's first copy, in arrival order — at most n.
	// Neither tag nor signature covers a certificate, so a faulty sender or
	// relayer can make any one candidate garbage; none is dropped unproven,
	// and a later copy of a counted sender that carries a different
	// certificate is verified on arrival (onForward). Every honest sender
	// reaching this replica over honest hands brings a valid one.
	//
	// settled marks a cst that executed below a stable checkpoint: no view
	// change carries it again, so its candidates are dropped and no more are
	// kept.
	//
	// wantProof marks a cst whose certificate a view change or NewView asked
	// for when no candidate verified: every counted sender may have forwarded
	// its shard's unproven certificate holding one faulty voter's garbage
	// signature. Until a candidate verifies the remote timer treats the cst
	// as starving, and the complaint brings back a Forward the previous
	// shard re-proved (see wantsProof, proveForward).
	//
	// sigs holds the previous-shard commit signatures for the batch that
	// verified here, whichever certificate carried it (pbft.VerifyCert
	// bounds them): an entry of a later certificate (a candidate, a swapped
	// copy, a NewView justification) equal to one of them is compared, not
	// verified. Dropped on settling.
	fwdCert   []types.Signed
	fwdCands  [][]types.Signed
	sigs      []types.Signed
	settled   bool
	wantProof bool

	locked   bool
	executed bool
	replied  bool

	// Linear-communication accounting (Section 4.3.6): the distinct
	// previous-shard senders counted for the Forward and the Execute, and
	// the next-shard RemoteView complainants (Fig 6). A set is accepted at
	// f+1 senders (accepted), and its lane sender, the one same-index
	// replica, is relayed when counted: the sets alone hold both rules.
	fwdFrom          map[types.NodeID]struct{}
	fwdFirst         time.Time // remote timer anchor (Fig 6)
	execFrom         map[types.NodeID]struct{}
	remoteComplaints map[types.NodeID]complaint

	carried []types.WriteSet // accumulated read/write sets (Σ)
	results []types.Value

	forwardSentAt time.Time // transmit timer anchor (Section 5.1.1)
	forwardMsg    *types.Message
}

// complaint is one RemoteView sender's first verified complaint and when it
// was last answered.
type complaint struct {
	msg      *types.Message
	answered time.Time
}

// Options configures a Replica.
type Options struct {
	Config types.Config
	Shard  types.ShardID
	Self   types.NodeID
	Peers  []types.NodeID // replicas of Shard; Peers[i].Index == i
	Auth   crypto.Authenticator
	Send   Sender
	Clock  func() time.Time
	// AllToAllForward disables the linear communication primitive for
	// ablation benchmarks: Forward/Execute go to every replica of the next
	// shard instead of only the same-index one (quadratic cross-shard
	// traffic, the pattern Section 4.3.6 is designed to avoid).
	AllToAllForward bool

	// Durability and Recovered come from wal.OpenManager (see
	// OpenDurability): non-nil Durability makes the replica log executed
	// blocks and watermarks to the WAL and snapshot at stable checkpoints;
	// Recovered state is applied during Preload, before any traffic.
	Durability *wal.Manager
	Recovered  *wal.Recovered

	// Evidence is the misbehavior evidence log (nil = fresh in-memory log).
	// Pass an evidence.Open'd log to persist records across restarts.
	Evidence *evidence.Log

	// Metrics, when non-nil, registers this replica's series (consensus
	// counters, queue/lock gauges, WAL telemetry) on the given registry,
	// labelled by shard and replica index. Pure side effect: no protocol
	// behaviour changes.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-sequence lifecycle events
	// (pre-prepare through reply, plus view-change and state-transfer
	// spans) stamped with the replica clock.
	Tracer *trace.Tracer

	// Backpressure, when non-nil, reports the transport's queued outbound
	// backlog; it clamps the host's pipeline window (see
	// host.Options.Backpressure).
	Backpressure func() int
}

// OpenDurability opens the durability manager for replica self under
// cfg.DataDir (per-replica subdirectory), returning it together with the
// recovered state to pass into Options. fs nil selects the real disk.
func OpenDurability(cfg types.Config, self types.NodeID, fs wal.FS) (*wal.Manager, *wal.Recovered, error) {
	return wal.OpenManager(wal.ManagerOptions{
		FS: fs, Dir: ReplicaDir(cfg.DataDir, self), FsyncInterval: cfg.FsyncInterval,
	})
}

// ReplicaDir is replica self's data directory under dataDir: its WAL, its
// snapshots and, on a ringbft-node, its evidence log.
func ReplicaDir(dataDir string, self types.NodeID) string {
	return wal.Join(dataDir, fmt.Sprintf("s%d-r%d", self.Shard, self.Index))
}

// WipeReplica erases replica self's data directory on fs, the in-memory
// filesystem or the real disk (the wipe-and-rejoin fault). A nil fs holds
// nothing to erase.
func WipeReplica(dataDir string, self types.NodeID, fs wal.FS) error {
	dir := ReplicaDir(dataDir, self)
	switch fs := fs.(type) {
	case nil:
		return nil
	case *wal.MemFS:
		fs.RemoveAll(dir)
		return nil
	case wal.OSFS:
		return os.RemoveAll(dir)
	}
	return fmt.Errorf("ringbft: cannot wipe %s on %T", dir, fs)
}

// New creates a RingBFT replica with a preloaded store partition.
func New(opts Options) *Replica {
	r := &Replica{
		locks:      store.NewLockTable(),
		lockQueue:  make(map[types.SeqNum]*logEntry),
		csts:       make(map[types.Digest]*cstState),
		live:       make(map[types.Digest]*cstState),
		allToAll:   opts.AllToAllForward,
		execDone:   make(map[types.SeqNum]struct{}),
		clientSeen: newFIFOWindow[types.TxnID, types.Digest](clientSeenCap),
		fwdSeen:    newFIFOWindow[fwdKey, evidence.Msg](fwdSeenCap),
	}
	r.Replica = host.NewReplica(host.Options{
		Config: opts.Config, Shard: opts.Shard, Self: opts.Self, Peers: opts.Peers,
		Auth: opts.Auth, Send: opts.Send, Clock: opts.Clock,
		Durability: opts.Durability, Recovered: opts.Recovered, Evidence: opts.Evidence,
		Obs:     host.NewObs(opts.Metrics, opts.Tracer, "ringbft", opts.Shard, opts.Self),
		Handler: r,
		Callbacks: pbft.Callbacks{
			Committed:           r.onCommitted,
			Stabilized:          r.onStabilized,
			Justification:       r.justification,
			VerifyJustification: r.verifyJustification,
		},
		Justify:      r.justified,
		Backpressure: opts.Backpressure,
		Transfer:     &host.Transfer{Watermark: r.kmax, Reset: r.resetTo},
	})
	r.ring = newRingMetrics(r.Obs)
	return r
}

// Preload installs n records of this shard's partition (see
// store.KV.Preload), then — for a durable replica — applies the state
// recovered from disk on top: the latest snapshot's table and ledger, plus
// the WAL tail replay. Call before the first message is handled.
func (r *Replica) Preload(records int) { r.Load(records, r.applyRecovered) }

// Recovered reports whether this replica resumed from durable state.
func (r *Replica) Recovered() bool { return r.recovered }

// ExecutedThrough returns the executed-prefix watermark: every sequence at
// or below it has executed locally (blocks above it may also have executed
// out of order and sit in the retained chain). The chaos checkers use it to
// reconstruct the exact executed set. Call only after Run returns.
func (r *Replica) ExecutedThrough() types.SeqNum { return r.execSeq }

// Stats is a snapshot of replica counters.
type Stats struct {
	ExecutedTxns  int64
	ExecutedCross int64
	// ExecErrors counts transactions whose execution failed (missing remote
	// read in Σ) and fell back to the deterministic sentinel result 0. Any
	// non-zero value means Σ accumulation is broken; happy-path tests assert
	// it stays 0.
	ExecErrors  int64
	ViewChanges int64
	Retransmits int64
	RemoteViews int64
	// StateTransfers counts canonical states installed from peers (crash
	// recovery with a gap, dark replicas, wiped rejoins).
	StateTransfers int64
	// DurErrors counts durability-layer write failures (0 on any healthy
	// filesystem; recovery degrades gracefully but tests assert 0).
	DurErrors int64
	// CoalescedReqs is always 0: each client request is proposed as it
	// arrived, never merged with another. The field stays for the
	// benchmark's per-layer report, which reads it.
	CoalescedReqs int64
	LockedKeys    int
	LedgerHeight  int
	KMax          types.SeqNum
	ExecSeq       types.SeqNum
}

// Stats returns a snapshot of the replica's counters — the very instruments
// its /metrics series expose. Call only from the replica's own goroutine or
// after Run returns.
func (r *Replica) Stats() Stats {
	return Stats{
		ExecutedTxns:   r.Obs.ExecutedTxns.Value(),
		ExecutedCross:  r.Obs.ExecutedCross.Value(),
		ExecErrors:     r.ring.execErrors.Value(),
		ViewChanges:    r.Obs.ViewChanges.Value(),
		Retransmits:    r.Obs.Retransmits.Value(),
		RemoteViews:    r.ring.remoteViews.Value(),
		StateTransfers: r.Obs.StateTransfers.Value(),
		DurErrors:      r.Obs.DurErrors.Value(),
		LockedKeys:     r.locks.Count(),
		LedgerHeight:   r.Ledger.Height(),
		KMax:           r.kmax(),
		ExecSeq:        r.execSeq,
	}
}

// HandleMessage dispatches one inbound message. Exported so deterministic
// test harnesses can drive replicas without goroutines.
func (r *Replica) HandleMessage(m *types.Message) {
	if m == nil {
		return
	}
	switch m.Type {
	case types.MsgClientRequest:
		r.onClientRequest(m)
	case types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
		types.MsgCheckpoint, types.MsgViewChange, types.MsgNewView:
		r.PBFT.OnMessage(m)
		r.Drain()
	case types.MsgForward:
		r.onForward(m)
	case types.MsgExecute:
		r.onExecute(m)
	case types.MsgRemoteView:
		r.onRemoteView(m)
	case types.MsgStateRequest:
		r.ServeState(m)
	case types.MsgStateSnapshot:
		r.AcceptState(m)
	default:
		// Protocol-comparison message types (HotStuff, PoE, SBFT, Zyzzyva)
		// never reach a RingBFT replica; an unknown type is a malformed or
		// misrouted frame and is dropped, never guessed at.
	}
}

// onClientRequest implements Fig 5 lines 4-9 plus the attack-A1 rules: a
// non-primary forwards to its primary and arms the watchdog; an executed
// request is answered from the cache; a request whose initiator is another
// shard is routed to that shard's primary. A client request is proposed as
// it arrived, so one that already carries request boundaries (Batch.Reqs)
// is malformed and dropped.
func (r *Replica) onClientRequest(m *types.Message) {
	if m.Batch == nil || len(m.Batch.Txns) == 0 || len(m.Batch.Reqs) > 0 {
		return
	}
	d := m.Batch.Digest()
	if m.Digest != (types.Digest{}) && m.Digest != d {
		return // malformed: digest does not match content
	}
	r.noteClientConflicts(m.Batch, d)
	if res, ok := r.Results[d]; ok {
		r.Respond(host.ClientOf(m.Batch), d, res)
		return
	}
	if !m.Batch.Involves(r.Shard) || m.Batch.Initiator() != r.Shard {
		// Route to the primary of the first shard in ring order.
		init := m.Batch.Initiator()
		fwd := *m
		fwd.From = r.Self
		r.Send(types.ReplicaNode(init, 0), &fwd)
		return
	}
	r.Enqueue(m.Batch, d)
}

// noteClientConflicts records client-equivocation evidence: two different
// payloads submitted under one transaction id. Re-submitting the same
// payload is a legal retransmission (attack A1, answered from the executed
// cache); only a digest mismatch under the same id is misbehavior. The
// batch is NOT dropped — ordering runs under consensus keyed by digest, so
// both variants committing is safe; the log just names who tried. Client
// requests carry no authenticator (see onClientRequest), so the record is
// advisory: every honest replica the client contacted observes the same
// pair, but it cannot convince a third party (Transferable=false).
func (r *Replica) noteClientConflicts(b *types.Batch, d types.Digest) {
	for i := range b.Txns {
		id := b.Txns[i].ID
		prev, ok := r.clientSeen.first[id]
		if !ok {
			r.clientSeen.put(id, d)
			continue
		}
		if prev == d {
			continue
		}
		client := types.ClientNode(id.Client)
		r.Ev.Add(evidence.Record{
			Kind: evidence.KindConflictingClient, Accused: client,
			Shard: r.Shard, Seq: types.SeqNum(id.Seq),
			First:  evidence.Msg{From: client, Type: types.MsgClientRequest, Shard: r.Shard, Digest: prev},
			Second: evidence.Msg{From: client, Type: types.MsgClientRequest, Shard: r.Shard, Digest: d},
		})
		return // one record per conflicting batch pair is plenty
	}
}

// justified reports whether batch b, with digest d, may enter local
// consensus. A cross-shard batch at a non-initiator shard must be vouched
// for by an accepted Forward (f+1 distinct previous-shard senders
// authenticated by their ring tags). Without this gate a Byzantine primary
// commits a fabricated batch variant — its own implicit prepare plus f
// honest backups is a quorum — whose locks nothing can ever release: no other shard committed
// it, so its ring rotation never completes and every conflicting
// transaction queues behind it forever. Every proposal path shares this
// gate: the engine's Justify callback (parking inbound PrePrepares until
// onForward's ReplayParked) and every other proposal path in the host
// kernel (see host.Kernel.Justified).
func (r *Replica) justified(b *types.Batch, d types.Digest) bool {
	if b == nil || !b.IsCrossShard() || b.Initiator() == r.Shard {
		return true
	}
	cs, ok := r.csts[d]
	return ok && r.accepted(len(cs.fwdFrom))
}

// accepted reports whether a sender set of the given size holds the f+1
// distinct senders the linear communication primitive accepts on (Section
// 4.3.6): at least one of them is non-faulty.
func (r *Replica) accepted(senders int) bool { return senders > r.Cfg.F() }

// justification is the engine's Justification callback. NewView
// re-proposals must prove justification to replicas whose own Forward
// quorum never completed: the attached certificate is the previous shard's
// nf-signed commit cert, self-certifying, and proven here before it leaves
// — an honest replica never ships a certificate it has not verified. When
// no candidate verifies, the cst is marked as wanting a proof, which keeps
// its remote timer complaining upstream until one does (see wantsProof).
// Until then the certificate is not ready if this replica counted the
// Forward quorum: it vouches for b, so an honest previous-shard replica can
// prove the certificate, and a NewView re-proposing b waits for it rather
// than reach a receiver that can justify b by no other means.
func (r *Replica) justification(b *types.Batch) ([]types.Signed, bool) {
	if b == nil || !b.IsCrossShard() || b.Initiator() == r.Shard {
		return nil, true
	}
	cs, ok := r.csts[b.Digest()]
	if !ok {
		return nil, true
	}
	cert := r.provenCert(cs)
	if cert == nil && !cs.wantProof && !cs.settled {
		cs.wantProof = true
		if cs.fwdFirst.IsZero() {
			r.armRemote(cs)
		}
		r.live[cs.digest] = cs
	}
	return cert, cert != nil || !r.accepted(len(cs.fwdFrom)) || !cs.wantsProof()
}

// verifyJustification is the engine's VerifyJustification callback: just
// must be the previous shard's certificate for b.
func (r *Replica) verifyJustification(b *types.Batch, just []types.Signed) bool {
	if b == nil || !b.IsCrossShard() || b.Initiator() == r.Shard ||
		!b.Involves(r.Shard) || len(just) == 0 {
		return false
	}
	d := b.Digest()
	return r.verifyPrevCert(r.csts[d], b, d, just)
}

// onCommitted is the engine's commit callback (may fire out of sequence
// order): enqueue for in-order locking and drain (Fig 5 lines 14-28).
func (r *Replica) onCommitted(seq types.SeqNum, batch *types.Batch, d types.Digest, cert *pbft.Cert) {
	r.Settle(d)
	r.lockQueue[seq] = &logEntry{seq: seq, batch: batch, digest: d, cert: cert}
	r.drainLockQueue()
}

// drainLockQueue acquires locks strictly in sequence order. The entry at
// k_max+1 blocks the queue while its data is locked by an earlier
// transaction (head-of-line, Example 4.4) — the ring order makes this
// deadlock-free (Theorem 6.2).
func (r *Replica) drainLockQueue() {
	for {
		ent, ok := r.lockQueue[r.kmax()+1]
		if !ok {
			return
		}
		if ent.keys == nil {
			ent.keys = r.localKeys(ent.batch)
		}
		if !r.locks.TryLock(ent.keys, lockOwner(ent.digest)) {
			return
		}
		delete(r.lockQueue, ent.seq)
		// Advancing k_max folds the batch digest into the prefix and may
		// schedule a checkpoint, emitted once local execution covers it:
		// its digest certifies the canonical state there
		// (host/checkpoint.go).
		r.Tracker.Committed(ent.seq, ent.digest)
		r.logProgress(ent.digest)
		r.EmitCheckpoints(r.execSeq)
		r.afterLocked(ent)
	}
}

// kmax is the lock-order watermark of Fig 5: every sequence at or below it
// acquired its locks.
func (r *Replica) kmax() types.SeqNum { return r.Tracker.Next() }

// afterLocked runs once a committed batch holds its locks: single-shard
// batches execute and answer the client; cross-shard batches read their
// local fragment and forward along the ring.
func (r *Replica) afterLocked(ent *logEntry) {
	b, d := ent.batch, ent.digest
	if len(b.Txns) == 0 { // no-op filler from a view change
		r.locks.Unlock(ent.keys, lockOwner(d))
		r.Record(ent.seq, r.PBFT.Primary(r.PBFT.View()), types.Digest{}, b, nil)
		r.markExecuted(ent.seq)
		return
	}
	if !b.IsCrossShard() {
		results := r.executeBatch(b, nil)
		r.Observe(ent.seq, trace.PhaseExecute)
		r.locks.Unlock(ent.keys, lockOwner(d))
		r.Record(ent.seq, r.PBFT.Primary(r.PBFT.View()), d, b, results)
		r.markExecuted(ent.seq)
		r.Respond(host.ClientOf(b), d, results)
		r.Observe(ent.seq, trace.PhaseReply)
		r.drainLockQueue()
		return
	}

	cs := r.cst(d)
	cs.batch = b
	cs.seq = ent.seq
	cs.cert = ent.cert
	cs.keys = ent.keys
	cs.locked = true

	// Accumulate this shard's read fragment into the carried Σ so that by
	// the end of rotation 1 the initiator holds every read value the
	// transaction needs (complex cst, Section 8.8).
	cs.mergeCarried([]types.WriteSet{r.localReadSet(b)})
	r.sendForward(cs)

	// The rotation may already have completed while this cst sat in the
	// lock queue: under backlog the wrap Forwards (initiator) or the
	// Execute quorum (other shards) accept before the locks acquire, and
	// the onForward/onExecute execution triggers have already passed.
	// Execute now — the merged Σ carries everything those copies brought
	// (found by internal/chaos, loss-storm schedules).
	if (r.accepted(len(cs.fwdFrom)) && r.Shard == b.Initiator()) || r.accepted(len(cs.execFrom)) {
		r.executeCst(cs)
	}
}

// executeBatch applies every transaction's local fragment in batch order.
// remote supplies cross-shard read values (nil for single-shard batches).
// A failing transaction (missing dependency = broken Σ accumulation)
// executes deterministically to the sentinel 0 so replicas stay aligned, and
// is counted in Stats.ExecErrors.
func (r *Replica) executeBatch(b *types.Batch, remote map[types.Key]types.Value) []types.Value {
	results := make([]types.Value, len(b.Txns))
	var errs int64
	for i := range b.Txns {
		v, err := r.KV.ExecuteTxn(&b.Txns[i], r.Shard, r.Cfg.Shards, remote)
		if err != nil {
			errs++
			continue
		}
		results[i] = v
	}
	r.ring.execErrors.Add(errs)
	r.Obs.Executed(b)
	return results
}

// localReadSet snapshots this shard's read fragment of the batch.
func (r *Replica) localReadSet(b *types.Batch) types.WriteSet {
	ws := types.WriteSet{Shard: r.Shard}
	for i := range b.Txns {
		ks, vs := r.KV.ReadLocal(&b.Txns[i], r.Shard, r.Cfg.Shards)
		ws.ReadKeys = append(ws.ReadKeys, ks...)
		ws.ReadValues = append(ws.ReadValues, vs...)
	}
	return ws
}

// localKeys returns every key of the batch owned by this shard (read and
// write sets both lock; Fig 5 line 18 locks the data-fragment), each
// transaction's reads then its writes. It is sized for the common shape, a
// read-modify-write of one key per involved shard.
func (r *Replica) localKeys(b *types.Batch) []types.Key {
	keys := make([]types.Key, 0, 2*len(b.Txns))
	for i := range b.Txns {
		t := &b.Txns[i]
		for _, k := range t.Reads {
			if types.OwnerShard(k, r.Cfg.Shards) == r.Shard {
				keys = append(keys, k)
			}
		}
		for _, k := range t.Writes {
			if types.OwnerShard(k, r.Cfg.Shards) == r.Shard {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func (r *Replica) cst(d types.Digest) *cstState {
	cs, ok := r.csts[d]
	if !ok {
		cs = &cstState{
			digest:   d,
			fwdFrom:  make(map[types.NodeID]struct{}),
			execFrom: make(map[types.NodeID]struct{}),
		}
		r.csts[d] = cs
		r.live[d] = cs
	}
	return cs
}

// armRemote starts (or re-anchors) cs's remote timer (Fig 6). An executed
// cst leaves the tick pass while its timer is unarmed, so arming puts it
// back.
func (r *Replica) armRemote(cs *cstState) {
	cs.fwdFirst = r.Clock()
	r.live[cs.digest] = cs
}

// lockOwner derives the lock-owner token from the batch digest d.
func lockOwner(d types.Digest) uint64 {
	return binary.BigEndian.Uint64(d[:8])
}
