package main

import (
	"math/rand"
	"sort"
	"time"

	"ringbft/internal/types"
	wl "ringbft/internal/workload"
)

// schedule pre-draws the open loop's due times, as offsets from the start
// of the run, from the seed alone: a Poisson process at reqRate requests/s
// over the warm-up, then exactly round(reqRate × window) arrivals placed
// uniformly in the measured window — a Poisson process conditioned on its
// count, so every seed offers the same number of requests and goodput does
// not inherit the draw's ±1/√n spread.
func schedule(seed int64, reqRate float64, warm, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / reqRate * float64(time.Second))
		if t >= warm {
			break
		}
		due = append(due, t)
	}
	n := int(reqRate*window.Seconds() + 0.5)
	first := len(due)
	for i := 0; i < n; i++ {
		due = append(due, warm+time.Duration(rng.Float64()*float64(window)))
	}
	in := due[first:]
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	return due
}

func newGenerator(w workload, seed int64) *wl.Generator {
	return wl.New(wl.Config{
		Shards: shards, ActiveRecords: w.records, CrossShardPct: w.crossPct,
		InvolvedShards: shards, BatchSize: clientBatch, Zipf: w.zipf, Seed: seed,
	})
}

// flight is one request in progress.
type flight struct {
	batch    *types.Batch
	due      time.Time // open loop: when it was due; closed loop: when it was sent
	sentAt   time.Time // last (re)transmission
	measured bool
	voted    [replicasPer]bool
	hash     [replicasPer]uint64
}

// slices is how many equal slices the measured window is cut into. CPU per
// txn and closed-loop goodput are medians over the slices, so a burst of
// interference from the host, shorter than half the window, does not move
// them.
const slices = 10

// clientStats is what the load generator saw of the requests that belong
// to the measured window.
type clientStats struct {
	attempted, failed int
	disagreed         int       // failed because the replies' result hashes disagree
	txns              int64     // txns in completed requests
	lat               []float64 // ms, due → f+1-th matching reply
	latSingle         []float64
	latCross          []float64
	late              []float64 // ms, send − due (open loop)
	retransmits       int
	lastDone          time.Time // completion of the last measured request
	spans             []span

	// edges are the slice boundaries as the generator observed them
	// (slices+1 of them: the window opens at the first and closes at the
	// last); sliceTxns counts each completion under the slice it happened
	// in, completions during the drain under the last.
	edges     []time.Time
	sliceTxns [slices]int64
}

func (st *clientStats) start() time.Time { return st.edges[0] }
func (st *clientStats) end() time.Time   { return st.edges[slices] }

// loadgen drives one cluster from one goroutine through one client
// endpoint: open loop on absolute due times, or closed loop with a fixed
// number of requests outstanding.
type loadgen struct {
	c        *cluster
	gen      *wl.Generator
	self     types.NodeID
	due      []time.Duration // open loop schedule
	next     int
	inflight map[types.Digest]*flight
	pending  int // measured requests in flight
	st       clientStats
	spans    bool
	closed   bool // closed loop
	open     bool // inside the measured window

	// onEdge is called at slice boundary i, on the generator's goroutine:
	// the window opens at 0 and closes at slices.
	onEdge func(i int)
}

const (
	clientTimeout = 2 * localTimeout // rebroadcast to the whole shard after this
	drainLimit    = 2 * time.Second
)

func (g *loadgen) send(due, now time.Time, measured bool) {
	b := g.gen.NextBatch(clientID)
	d := b.Digest()
	g.inflight[d] = &flight{batch: b, due: due, sentAt: now, measured: measured}
	if measured {
		g.st.attempted++
		g.pending++
		g.st.late = append(g.st.late, ms(now.Sub(due)))
	}
	g.c.client.Send(types.ReplicaNode(b.Initiator(), 0), &types.Message{
		Type: types.MsgClientRequest, From: g.self, Batch: b, Digest: d,
	})
}

// reply counts one response; a request completes on f+1 replies from its
// initiator shard with equal result hashes and fails when every replica of
// that shard has answered without such a quorum.
func (g *loadgen) reply(m *types.Message, now time.Time) {
	fl := g.inflight[m.Digest]
	if fl == nil || m.Type != types.MsgResponse || m.From.Kind != types.KindReplica ||
		m.From.Shard != fl.batch.Initiator() || m.From.Index < 0 || m.From.Index >= replicasPer ||
		fl.voted[m.From.Index] || len(m.Results) != len(fl.batch.Txns) {
		return
	}
	h := types.HashValues(m.Results)
	fl.voted[m.From.Index], fl.hash[m.From.Index] = true, h
	same, all := 0, 0
	for i, v := range fl.voted {
		if v {
			all++
			if fl.hash[i] == h {
				same++
			}
		}
	}
	f := (replicasPer - 1) / 3
	if same <= f && all < replicasPer {
		return
	}
	delete(g.inflight, m.Digest)
	if fl.measured {
		g.pending--
		if same <= f {
			g.st.failed++
			g.st.disagreed++
		}
	}
	// The open loop counts the requests due inside the window whenever they
	// complete; the closed loop counts completions inside the window.
	if same <= f || (g.closed && !g.open) || (!g.closed && !fl.measured) {
		return
	}
	l := ms(now.Sub(fl.due))
	g.st.txns += int64(len(fl.batch.Txns))
	g.st.lat = append(g.st.lat, l)
	slice := min(len(g.st.edges), slices) - 1 // the drain counts into the last slice
	g.st.sliceTxns[slice] += int64(len(fl.batch.Txns))
	if fl.batch.IsCrossShard() {
		g.st.latCross = append(g.st.latCross, l)
	} else {
		g.st.latSingle = append(g.st.latSingle, l)
	}
	g.st.lastDone = now
	if g.spans {
		g.st.spans = append(g.st.spans, span{
			ID: uint64(len(g.st.spans) + 1), Name: "client.request", Node: g.self.String(),
			Start: fl.due.UnixNano(), End: now.UnixNano(), digest: m.Digest,
		})
	}
}

func (g *loadgen) retransmit(now time.Time) {
	for _, d := range types.SortedDigestKeys(g.inflight) {
		fl := g.inflight[d]
		if now.Sub(fl.sentAt) <= clientTimeout {
			continue
		}
		fl.sentAt = now
		if fl.measured {
			g.st.retransmits++
		}
		m := &types.Message{Type: types.MsgClientRequest, From: g.self, Batch: fl.batch, Digest: d}
		for i := 0; i < replicasPer; i++ {
			g.c.client.Send(types.ReplicaNode(fl.batch.Initiator(), i), m)
		}
	}
}

// run drives warm-up, the measured window and the drain. In the closed loop
// a completed request is replaced at once, and the requests attempted are
// those sent inside the window.
func (g *loadgen) run(w workload, warm, window time.Duration, scale float64) clientStats {
	start := time.Now()
	winStart := start.Add(warm)
	edge := func(i int) time.Time { return winStart.Add(window * time.Duration(i) / slices) }
	g.closed = w.rate == 0
	outstanding := int(float64(w.window)*scale + 0.5)
	if g.closed && outstanding < 1 {
		outstanding = 1
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	retick := time.NewTicker(clientTimeout / 2)
	defer retick.Stop()

	var done bool
	var deadline time.Time
	for {
		now := time.Now()
		for !done && !now.Before(edge(len(g.st.edges))) {
			i := len(g.st.edges)
			g.st.edges = append(g.st.edges, now)
			g.open, done = i < slices, i == slices
			g.onEdge(i)
		}
		if done && deadline.IsZero() {
			deadline = now.Add(drainLimit)
		}
		if done && (g.pending == 0 || now.After(deadline)) {
			g.st.failed += g.pending // no quorum by the drain deadline
			return g.st
		}
		wake := deadline
		if !done {
			wake = edge(len(g.st.edges))
		}
		if g.closed {
			for !done && len(g.inflight) < outstanding {
				g.send(now, now, g.open)
			}
		} else {
			// Everything overdue goes out now; latency still counts from
			// the due instant, so a late generator cannot hide queueing.
			for g.next < len(g.due) && !now.Before(start.Add(g.due[g.next])) {
				at := start.Add(g.due[g.next])
				g.send(at, time.Now(), !at.Before(winStart))
				g.next++
			}
			if g.next < len(g.due) {
				if at := start.Add(g.due[g.next]); at.Before(wake) {
					wake = at
				}
			}
		}
		timer.Reset(time.Until(wake))
		select {
		case m := <-g.c.client.Inbox():
			g.reply(m, time.Now())
		case <-timer.C:
		case <-retick.C:
			g.retransmit(time.Now())
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
