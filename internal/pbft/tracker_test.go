package pbft

import (
	"testing"

	"ringbft/internal/types"
)

func TestTrackerKeepsWindowSliding(t *testing.T) {
	h := newHarness(t, 4)
	trackers := make([]*CheckpointTracker, 4)
	for i := range trackers {
		trackers[i] = NewCheckpointTracker(64, h.engines[i].MakeCheckpoint)
	}
	// Attach tracker to commit callback via wrapper: re-register Committed.
	for i := range h.engines {
		i := i
		orig := h.engines[i].cb.Committed
		h.engines[i].cb.Committed = func(seq types.SeqNum, b *types.Batch, d types.Digest, cert *Cert) {
			trackers[i].Committed(seq, d)
			if orig != nil {
				orig(seq, b, d, cert)
			}
		}
	}
	for k := 1; k <= 1200; k++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(k))); err != nil {
			t.Fatalf("propose %d failed: %v (stable=%d)", k, err, h.engines[0].StableSeq())
		}
		h.pump()
	}
	for i := range h.engines {
		if got := h.engines[i].StableSeq(); got < 1024 {
			t.Fatalf("replica %d stableSeq=%d, want >= 1024", i, got)
		}
	}
}
