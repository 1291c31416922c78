package pbft

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/raceflag"
	"ringbft/internal/simnet"
	"ringbft/internal/types"
)

// TestLiveWindowSliding drives four engines over the concurrent simulated
// network (goroutines, real timing) far past the watermark window to verify
// checkpoints keep the log sliding outside the deterministic harness.
func TestLiveWindowSliding(t *testing.T) {
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency{D: 200 * time.Microsecond}})
	defer net.Close()
	kg := crypto.NewKeygen(3)
	peers := make([]types.NodeID, 4)
	for i := range peers {
		peers[i] = types.ReplicaNode(0, i)
		kg.Register(peers[i])
	}
	type nodeState struct {
		mu      sync.Mutex
		engine  *Engine
		tracker *CheckpointTracker
		commits atomic.Int64
	}
	nodes := make([]*nodeState, 4)
	eps := make([]*simnet.Endpoint, 4)
	for i := range peers {
		i := i
		ns := &nodeState{}
		ep := net.Attach(peers[i], 0)
		ring, _ := kg.Ring(peers[i])
		ns.engine = New(0, peers[i], peers, ring, Callbacks{
			Send: func(to types.NodeID, m *types.Message) { ep.Send(to, m) },
			Committed: func(seq types.SeqNum, b *types.Batch, d types.Digest, _ *Cert) {
				ns.tracker.Committed(seq, d)
				ns.commits.Add(1)
			},
		}, Options{})
		ns.tracker = NewCheckpointTracker(64, ns.engine.MakeCheckpoint)
		nodes[i] = ns
		eps[i] = ep
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(ns *nodeState, in <-chan *types.Message) {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case m := <-in:
					ns.mu.Lock()
					ns.engine.OnMessage(m)
					ns.mu.Unlock()
				}
			}
		}(nodes[i], eps[i].Inbox())
	}
	// Propose 1200 batches as fast as the window allows; give up on a
	// stall so the test reports diagnostics instead of hanging. The
	// budgets are caps, not pacing — a healthy run finishes well under
	// them — but they must absorb the race detector's slowdown (a -race
	// build reaches ~1150/1200 right as the unscaled budget expires).
	scale := time.Duration(1)
	if raceflag.Enabled {
		scale = 4
	}
	stallUntil := time.Now().Add(scale * 8 * time.Second)
	for k := 1; k <= 1200; {
		nodes[0].mu.Lock()
		_, err := nodes[0].engine.Propose(batchOf(uint64(k)))
		nodes[0].mu.Unlock()
		if err != nil {
			if time.Now().After(stallUntil) {
				t.Logf("proposer stalled at %d", k)
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		k++
	}
	deadline := time.Now().Add(scale * 10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, ns := range nodes {
			if ns.commits.Load() < 1200 {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, ns := range nodes {
		if got := ns.commits.Load(); got < 1200 {
			ns.mu.Lock()
			t.Errorf("replica %d committed %d/1200 (stable=%d, trackerNext=%d, votes=%v, uncommitted=%d, logsize=%d)",
				i, got, ns.engine.StableSeq(), ns.tracker.Next(), ns.engine.CheckpointVotes(), ns.engine.UncommittedInWindow(), ns.engine.LogSize())
			ns.mu.Unlock()
		}
	}
}
