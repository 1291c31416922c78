package main

import (
	"errors"
	"time"

	"ringbft/internal/ledger"
	"ringbft/internal/sched"
	"ringbft/internal/store"
	"ringbft/internal/tcpnet"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// replayStats are the leaf layers' costs outside the cluster: the
// workload's first replayBatches generated requests pushed single-threaded
// through each layer's public functions, at the workload's record count.
type replayStats struct {
	digestUs, executeUs, lockUs, planUs, ledgerAppendUs float64 // per batch
	storeDigestMs                                       float64
	walAppendUs, walSnapshotMs                          float64
	tcpPairUs                                           float64
}

// timeEach returns the mean microseconds f(i) took over i in [0, n).
func timeEach(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(t0)) / float64(n)
}

// medianMs runs f three times and returns the median in milliseconds.
func medianMs(f func(i int)) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		xs = append(xs, timeEach(1, func(int) { f(i) })/1000)
	}
	return quantile(xs, 0.5)
}

func replay(w workload, seed int64) (replayStats, error) {
	var rp replayStats
	gen := newGenerator(w, seed)
	batches := make([]*types.Batch, replayBatches)
	for i := range batches {
		batches[i] = gen.NextBatch(clientID)
	}
	kvs := make([]*store.KV, shards)
	for s := range kvs {
		kvs[s] = store.NewKV()
		kvs[s].Preload(types.ShardID(s), shards, w.records)
	}
	// Per batch, at its initiator shard: the local keys the lock table
	// sees and the remote reads Σ would carry.
	local := make([][]types.Key, len(batches))
	remote := make([]map[types.Key]types.Value, len(batches))
	for i, b := range batches {
		s := b.Initiator()
		remote[i] = make(map[types.Key]types.Value)
		for j := range b.Txns {
			t := &b.Txns[j]
			local[i] = append(append(local[i], t.ReadsAt(s, shards)...), t.WritesAt(s, shards)...)
			for _, k := range t.Reads {
				if o := types.OwnerShard(k, shards); o != s {
					remote[i][k] = kvs[o].Get(k)
				}
			}
		}
	}

	var sink types.Digest
	rp.digestUs = timeEach(len(batches), func(i int) { sink = batches[i].Digest() })
	_ = sink
	rp.planUs = timeEach(len(batches), func(i int) {
		sched.BuildPlan(batches[i].Txns, batches[i].Initiator(), shards)
	})
	locks := store.NewLockTable()
	rp.lockUs = timeEach(len(batches), func(i int) {
		locks.TryLock(local[i], uint64(i+1))
		locks.Unlock(local[i], uint64(i+1))
	})
	var execErr error
	rp.executeUs = timeEach(len(batches), func(i int) {
		b := batches[i]
		for j := range b.Txns {
			if _, err := kvs[b.Initiator()].ExecuteTxn(&b.Txns[j], b.Initiator(), shards, remote[i]); err != nil {
				execErr = err
			}
		}
	})
	if execErr != nil {
		return rp, execErr
	}
	rp.storeDigestMs = medianMs(func(int) {
		kvs[0].Pairs()
		kvs[0].Digest()
	})
	primary := types.ReplicaNode(0, 0)
	chain := ledger.NewChain(0)
	rp.ledgerAppendUs = timeEach(len(batches), func(i int) {
		chain.Append(types.SeqNum(i+1), primary, batches[i])
	})

	m, _, err := wal.OpenManager(wal.ManagerOptions{FS: wal.NewMemFS(), Dir: "replay"})
	if err != nil {
		return rp, err
	}
	results := make([]types.Value, clientBatch)
	var walErr error
	rp.walAppendUs = timeEach(len(batches), func(i int) {
		if err := m.LogBlock(types.SeqNum(i+1), primary, batches[i], results); err != nil {
			walErr = err
		}
	})
	pairs := kvs[0].Pairs()
	rp.walSnapshotMs = medianMs(func(i int) {
		snap := &wal.Snapshot{StableSeq: types.SeqNum(i + 1), KMax: types.SeqNum(i + 1), Pairs: pairs}
		if err := m.SaveSnapshot(snap); err != nil {
			walErr = err
		}
	})
	if err := m.Close(); err != nil {
		walErr = err
	}
	if walErr != nil {
		return rp, walErr
	}

	rp.tcpPairUs, err = tcpPair(batches)
	return rp, err
}

// tcpPair pushes one PRE-PREPARE per batch through two loopback transports,
// one at a time, Send to the peer's Inbox: encode, frame, write, read,
// decode, with no protocol on either side.
func tcpPair(batches []*types.Batch) (float64, error) {
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	tb, err := tcpnet.New(b, "127.0.0.1:0", nil, tcpOptions)
	if err != nil {
		return 0, err
	}
	defer tb.Close()
	ta, err := tcpnet.New(a, "127.0.0.1:0", map[types.NodeID]string{b: tb.Addr()}, tcpOptions)
	if err != nil {
		return 0, err
	}
	defer ta.Close()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	var lost bool
	push := func(i int) {
		if lost {
			return
		}
		ta.Send(b, &types.Message{
			Type: types.MsgPrePrepare, From: a, Seq: types.SeqNum(i + 1),
			Batch: batches[i], Digest: types.Digest{byte(i)},
		})
		select {
		case <-tb.Inbox():
		case <-timeout.C:
			lost = true
		}
	}
	push(0) // dial
	perMsg := timeEach(len(batches), push)
	if lost {
		return 0, errors.New("tcpnet pair: message not delivered within 10s")
	}
	return perMsg, nil
}
