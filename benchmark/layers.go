package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"ringbft/internal/trace"
)

// layerMetrics turns the traced pass tp into the per-layer metrics: every
// one of them on every workload, 0 where the layer is bypassed. Rates are
// per txn committed inside the traced window unless the name says
// otherwise. ref is the untraced pass of the same run (tracing overhead),
// rp the leaf-layer replay.
func layerMetrics(w workload, ref, tp *pass, rp replayStats) []metricValue {
	txns := float64(tp.client.txns)
	per := func(x float64) float64 { return div(x, txns) }

	var sum probe
	var busyMax time.Duration
	var depths []float64
	var execTxns, blocks, coalesced, retransmits, viewChanges float64
	for _, p := range tp.c.probes {
		sum.busy += p.busy
		busyMax = max(busyMax, p.busy)
		for k := range p.handle {
			sum.handle[k].calls += p.handle[k].calls
			sum.handle[k].d += p.handle[k].d
		}
		for _, st := range []struct{ to, from *callStat }{
			{&sum.mac, &p.mac}, {&sum.verifyMAC, &p.verifyMAC}, {&sum.sign, &p.sign},
			{&sum.verify, &p.verify}, {&sum.sent, &p.sent},
			{&sum.walWrite, &p.walWrite}, {&sum.walSync, &p.walSync},
		} {
			st.to.calls += st.from.calls
			st.to.d += st.from.d
		}
		sum.crossSends += p.crossSends
		sum.walBytes += p.walBytes
		sum.walOther += p.walOther
		for _, d := range p.inboxDepth {
			depths = append(depths, float64(d))
		}
		execTxns += float64(p.end.ExecutedTxns - p.base.ExecutedTxns)
		blocks += float64(p.end.LedgerHeight - p.base.LedgerHeight)
		coalesced += float64(p.end.CoalescedReqs - p.base.CoalescedReqs)
		retransmits += float64(p.end.Retransmits - p.base.Retransmits)
	}
	for _, r := range tp.c.replicas {
		viewChanges += float64(r.Stats().ViewChanges)
	}
	macCalls := float64(sum.mac.calls + sum.verifyMAC.calls)
	sigCalls := float64(sum.sign.calls + sum.verify.calls)
	cryptoTime := sum.mac.d + sum.verifyMAC.d + sum.sign.d + sum.verify.d
	walTime := sum.walWrite.d + sum.walSync.d + sum.walOther

	ms := []metricValue{
		{"ringbft.busy_us_per_txn", "us/txn", per(us(sum.busy))},
		{"ringbft.self_us_per_txn", "us/txn", per(us(sum.busy - cryptoTime - sum.sent.d - walTime))},
		{"ringbft.busy_frac_max", "frac", div(busyMax.Seconds(), tp.elapsed.Seconds())},
		{"ringbft.inbox_depth_p95", "count", quantile(depths, 0.95)},
	}
	for k, name := range handleKinds[:kindOther] {
		ms = append(ms, metricValue{"ringbft.handle_us." + name, "us/call", div(us(sum.handle[k].d), float64(sum.handle[k].calls))})
	}
	for k, name := range handleKinds[:kindOther] {
		ms = append(ms, metricValue{"ringbft.calls_per_txn." + name, "1/txn", per(float64(sum.handle[k].calls))})
	}

	// The repo's own instruments: the forward-quorum histogram of every
	// replica that saw a Forward (registry), and the lifecycle tracer.
	var fq []float64
	for s := 0; s < shards; s++ {
		for i := 0; i < replicasPer; i++ {
			h := tp.c.reg.Histogram("ringbft_forward_quorum_seconds", "shard", strconv.Itoa(s), "replica", strconv.Itoa(i))
			if h.Count() > 0 {
				fq = append(fq, float64(h.Quantile(0.5))/float64(time.Millisecond))
			}
		}
	}
	var events []trace.Event
	for _, t := range tp.c.tracers {
		for _, e := range t.Events() {
			if !e.At.Before(tp.client.start()) {
				events = append(events, e)
			}
		}
	}
	bd := trace.Breakdown(events)
	phase := func(p trace.Phase) float64 {
		return float64(trace.Quantile(bd[p], 0.5)) / float64(time.Millisecond)
	}
	stalled := 0
	for _, n := range trace.Stalled(events) {
		stalled += n
	}

	// The fabric in use reports; the other one's metrics are 0.
	var sim, tcp fabricStats
	var tcpSend time.Duration
	if w.tcp {
		tcp, tcpSend = tp.fabric, sum.sent.d
	} else {
		sim = tp.fabric
	}
	cpu := tp.cpu.Seconds()
	return append(ms,
		metricValue{"ringbft.txns_per_block", "txn/block", div(execTxns, blocks)},
		metricValue{"ringbft.coalesced_reqs_per_txn", "req/txn", per(coalesced)},
		metricValue{"ringbft.msgs_sent_per_txn", "1/txn", per(float64(sum.sent.calls))},
		metricValue{"ringbft.cross_msgs_per_txn", "1/txn", per(float64(sum.crossSends))},
		metricValue{"ringbft.forward_quorum_ms_p50", "ms", quantile(fq, 0.5)},
		metricValue{"ringbft.retransmits", "count", retransmits},

		metricValue{"pbft.phase_ms_p50.preprepare", "ms", phase(trace.PhasePrePrepare)},
		metricValue{"pbft.phase_ms_p50.prepare", "ms", phase(trace.PhasePrepare)},
		metricValue{"pbft.phase_ms_p50.commit", "ms", phase(trace.PhaseCommit)},
		metricValue{"pbft.phase_ms_p50.execute", "ms", phase(trace.PhaseExecute)},
		metricValue{"pbft.view_changes", "count", viewChanges},
		metricValue{"pbft.stalled_spans", "count", float64(stalled)},

		metricValue{"crypto.mac_calls_per_txn", "1/txn", per(float64(sum.mac.calls))},
		metricValue{"crypto.verifymac_calls_per_txn", "1/txn", per(float64(sum.verifyMAC.calls))},
		metricValue{"crypto.sign_calls_per_txn", "1/txn", per(float64(sum.sign.calls))},
		metricValue{"crypto.verify_calls_per_txn", "1/txn", per(float64(sum.verify.calls))},
		metricValue{"crypto.mac_us_per_call", "us/call", div(us(sum.mac.d+sum.verifyMAC.d), macCalls)},
		metricValue{"crypto.sig_us_per_call", "us/call", div(us(sum.sign.d+sum.verify.d), sigCalls)},
		metricValue{"crypto.busy_us_per_txn", "us/txn", per(us(cryptoTime))},

		metricValue{"simnet.msgs_per_txn", "1/txn", per(float64(sim.msgs))},
		metricValue{"simnet.bytes_per_txn", "B/txn", per(float64(sim.bytes))},
		metricValue{"simnet.cross_bytes_per_txn", "B/txn", per(float64(sim.crossBytes))},
		metricValue{"simnet.dropped", "count", float64(sim.dropped)},
		metricValue{"tcpnet.frames_per_txn", "1/txn", per(float64(tcp.msgs))},
		metricValue{"tcpnet.bytes_per_txn", "B/txn", per(float64(tcp.bytes))},
		metricValue{"tcpnet.send_us_per_txn", "us/txn", per(us(tcpSend))},
		metricValue{"tcpnet.dropped", "count", float64(tcp.dropped)},
		metricValue{"tcpnet.redials", "count", float64(tcp.redials)},
		metricValue{"tcpnet.pair_us_per_msg", "us/msg", rp.tcpPairUs},

		metricValue{"wal.writes_per_txn", "1/txn", per(float64(sum.walWrite.calls))},
		metricValue{"wal.bytes_per_txn", "B/txn", per(float64(sum.walBytes))},
		metricValue{"wal.syncs_per_txn", "1/txn", per(float64(sum.walSync.calls))},
		metricValue{"wal.fs_us_per_txn", "us/txn", per(us(walTime))},
		metricValue{"wal.append_us_per_batch", "us/batch", rp.walAppendUs},
		metricValue{"wal.snapshot_ms", "ms", rp.walSnapshotMs},

		metricValue{"types.digest_us_per_batch", "us/batch", rp.digestUs},
		metricValue{"store.execute_us_per_batch", "us/batch", rp.executeUs},
		metricValue{"store.lock_us_per_batch", "us/batch", rp.lockUs},
		metricValue{"store.digest_ms", "ms", rp.storeDigestMs},
		metricValue{"sched.plan_us_per_batch", "us/batch", rp.planUs},
		metricValue{"ledger.append_us_per_batch", "us/batch", rp.ledgerAppendUs},

		metricValue{"process.alloc_kb_per_txn", "KB/txn", per(float64(tp.rt1.allocBytes-tp.rt0.allocBytes) / 1024)},
		metricValue{"process.gc_cpu_frac", "frac", div(tp.rt1.gcCPU-tp.rt0.gcCPU, cpu)},
		metricValue{"process.heap_peak_mb", "MB", float64(tp.heapPeak) / (1 << 20)},
		metricValue{"process.goroutines_peak", "count", float64(tp.gorPeak)},
		metricValue{"process.unattributed_cpu_frac", "frac", 1 - div(sum.busy.Seconds(), cpu)},
		metricValue{"trace.overhead_frac", "frac", div(tp.cpuPerTxn(), ref.cpuPerTxn()) - 1},

		metricValue{"client.late_p99_ms", "ms", quantile(tp.client.late, 0.99)},
		metricValue{"client.samples", "count", float64(len(tp.client.lat))},
		metricValue{"client.lat_p95_ms", "ms", quantile(tp.client.lat, 0.95)},
		metricValue{"client.lat_p99_ms", "ms", quantile(tp.client.lat, 0.99)},
		metricValue{"client.lat_single_p50_ms", "ms", quantile(tp.client.latSingle, 0.5)},
		metricValue{"client.lat_cross_p50_ms", "ms", quantile(tp.client.latCross, 0.5)},
		metricValue{"client.retransmits", "count", float64(tp.client.retransmits)},
	)
}

// writeSpans writes the traced pass' spans, one JSON object per line, to
// dir/<workload>.spans.jsonl: the client's request spans first, then every
// replica's handled-message spans with their crypto, send and WAL children.
// A handled message whose digest is a client request's gets that request's
// span as its parent.
func writeSpans(dir, name string, tp *pass) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	request := make(map[[32]byte]uint64, len(tp.client.spans))
	all := tp.client.spans
	for _, s := range all {
		request[s.digest] = s.ID
	}
	for _, p := range tp.c.probes {
		all = append(all, p.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for i := range all {
		s := &all[i]
		if !s.digest.IsZero() {
			s.Digest = hex.EncodeToString(s.digest[:8])
			if s.Parent == 0 && s.Name != "client.request" {
				s.Parent = request[s.digest]
			}
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
