package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ringbft/internal/harness"
	"ringbft/internal/ringbft"
)

// scrapeCounters parses the integer-valued lines of a Prometheus-text
// snapshot into series -> value.
func scrapeCounters(text string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[series] = v
		}
	}
	return out
}

// TestCountersAreSeries: a host counts each event once, so after an
// instrumented run in which a replica crashed and restarted, every counter
// the post-run accessors report — ringbft.Stats, and the AHL and Sharper
// *Count accessors — equals its /metrics series, the restarted replica's
// included.
func TestCountersAreSeries(t *testing.T) {
	for _, proto := range []harness.Protocol{harness.ProtoRingBFT, harness.ProtoAHL, harness.ProtoSharper} {
		t.Run(string(proto), func(t *testing.T) {
			// Seed 5: a schedule under which every protocol counts something.
			sc := Scenario{Protocol: proto, Fault: FaultCrashRestart, Seed: 5, Instrument: true}.Normalize()
			sched := BuildSchedule(sc)
			c, err := NewCluster(sc)
			if err != nil {
				t.Fatal(err)
			}
			restarted := 0
			for _, e := range sched.Events {
				if e.Op == OpRestart {
					restarted++
				}
			}
			if restarted == 0 {
				t.Fatal("schedule restarts no replica")
			}
			for c.tick < sched.Horizon {
				if err := c.step(sched.Events); err != nil {
					t.Fatal(err)
				}
			}
			_, snapshot := c.Observability()
			scraped := scrapeCounters(snapshot)
			var total int64
			for _, id := range c.order {
				series := func(name string) int64 {
					key := fmt.Sprintf(`%s_%s{replica="%d",shard="%d"}`, proto, name, id.Index, id.Shard)
					v, ok := scraped[key]
					if !ok {
						t.Fatalf("%v: series %s not exposed", id, key)
					}
					return v
				}
				want := map[string]int64{}
				switch n := c.nodes[id].(type) {
				case *ringbft.Replica:
					st := n.Stats()
					want = map[string]int64{
						"executed_txns_total":       st.ExecutedTxns,
						"executed_cross_txns_total": st.ExecutedCross,
						"exec_errors_total":         st.ExecErrors,
						"view_changes_total":        st.ViewChanges,
						"forward_retransmits_total": st.Retransmits,
						"remote_views_total":        st.RemoteViews,
						"state_transfers_total":     st.StateTransfers,
						"durability_errors_total":   st.DurErrors,
					}
				case interface {
					ViewChangeCount() int64
					RetransmitCount() int64
				}:
					want["view_changes_total"] = n.ViewChangeCount()
					want["forward_retransmits_total"] = n.RetransmitCount()
					if tp, ok := n.(interface{ StateTransferCount() int64 }); ok {
						want["state_transfers_total"] = tp.StateTransferCount()
					}
				default:
					t.Fatalf("%v: unexpected node type %T", id, n)
				}
				for name, v := range want {
					if got := series(name); got != v {
						t.Errorf("%v: accessor reads %d for %s, series %d", id, v, name, got)
					}
					total += v
				}
			}
			if total == 0 {
				t.Fatal("run counted nothing; the comparison is vacuous")
			}
		})
	}
}
