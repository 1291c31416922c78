package chaos

import (
	"slices"
	"testing"

	"ringbft/internal/harness"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// badCommitSigFootprint replays the matrix's byz-bad-commit-sig row with an
// observer on every replica's sends and returns what the row exists to
// exercise: Forwards an honest replica sent with a certificate holding the
// garbage Commit signature, later sends of the same Forwards whose
// certificate no longer holds it (re-proven), and NewViews that reached the
// restarted shard-1 primary carrying a re-proposal's certificate.
func badCommitSigFootprint(t *testing.T, sc Scenario) (garbage, reproven, justified int) {
	t.Helper()
	sc = sc.Normalize()
	sched := BuildSchedule(sc)
	c, err := newCluster(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	type claim struct {
		from   types.NodeID
		digest types.Digest
	}
	garbled := make(map[claim]bool)
	restarted := types.ReplicaNode(1, 0)
	restartAt := -1
	for _, e := range sched.Events {
		if e.Op == OpRestart && types.ReplicaNode(e.Shard, e.Index) == restarted {
			restartAt = e.At
		}
	}
	// Rebuild every node, before any traffic, on a fresh filesystem and
	// with the observer in front of its sender: the same run as the row's.
	c.fs = wal.NewMemFS()
	for _, id := range c.order {
		h := c.hooks[id]
		send := h.Send
		h.FS = c.fs
		h.Send = func(to types.NodeID, m *types.Message) {
			switch {
			case m.Type == types.MsgForward && m.From == id && c.byz[id] == harness.ByzNone:
				k := claim{id, m.Digest}
				if zeroSig(m.Cert) {
					garbled[k] = true
					garbage++
				} else if garbled[k] {
					reproven++
				}
			case m.Type == types.MsgNewView && to == restarted && restartAt >= 0 && c.tick >= restartAt:
				for _, p := range m.Prepared {
					if p.Batch.IsCrossShard() && len(p.Justification) > 0 {
						justified++
					}
				}
			}
			send(to, m)
		}
		c.hooks[id] = h
		if err := c.spawn(id); err != nil {
			t.Fatal(err)
		}
	}
	for c.tick < sched.Horizon {
		if err := c.step(sched.Events); err != nil {
			t.Fatal(err)
		}
	}
	ticks, ok, err := c.probe(sc.ProbeBudget)
	if err != nil || !ok {
		t.Fatalf("probe: ok=%v err=%v", ok, err)
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbeTicks != ticks {
		t.Fatalf("the observed run diverged from the row's: probe took %d ticks, the row's %d", ticks, res.ProbeTicks)
	}
	return garbage, reproven, justified
}

// zeroSig reports whether cert holds an all-zero signature: the one
// harness.ByzBadCommitSig puts on its Commits.
func zeroSig(cert []types.Signed) bool {
	return slices.ContainsFunc(cert, func(s types.Signed) bool {
		return len(s.Sig) > 0 && !slices.ContainsFunc(s.Sig, func(b byte) bool { return b != 0 })
	})
}

// TestBadCommitSigFootprint: the byz-bad-commit-sig row passes for the right
// reason. An honest shard-0 replica forwarded a certificate holding the
// faulty voter's garbage, an honest replica re-sent that Forward with its
// certificate proven, and the restarted shard-1 replica received a NewView
// whose re-proposal carried a certificate.
func TestBadCommitSigFootprint(t *testing.T) {
	i := slices.IndexFunc(Matrix(), func(sc Scenario) bool { return sc.Fault == FaultByzBadCommitSig })
	if i < 0 {
		t.Fatal("the matrix has no byz-bad-commit-sig row")
	}
	garbage, reproven, justified := badCommitSigFootprint(t, Matrix()[i])
	t.Logf("garbage-holding Forwards %d, re-proven %d, justified NewView re-proposals to the restarted replica %d", garbage, reproven, justified)
	if garbage == 0 {
		t.Error("no honest replica forwarded a certificate holding the garbage Commit signature")
	}
	if reproven == 0 {
		t.Error("no honest replica re-sent a garbage-holding Forward with its certificate proven")
	}
	if justified == 0 {
		t.Error("no NewView carrying a re-proposal's certificate reached the restarted replica")
	}
}
