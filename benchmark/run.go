package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ringbft/internal/types"
)

// options shape one benchmark run.
type options struct {
	seed     int64
	window   time.Duration // measured window of a run
	warm     time.Duration // excluded warm-up before every window
	setups   int           // clusters set up per untraced run; setup_s is their median
	scale    float64       // share of each workload's load actually offered (tests run at 0.25)
	traceOut string        // directory for the span log of a traced run ("" = keep in memory)
}

// settle is how long replicas keep running after the last measured reply,
// so backups finish executing what the primaries already answered.
const settle = 100 * time.Millisecond

// fabricStats are the fabric's own cumulative counters.
type fabricStats struct {
	msgs, bytes, crossBytes, dropped, redials int64
}

func (c *cluster) fabricStats() fabricStats {
	var f fabricStats
	if c.net != nil {
		s := &c.net.Stats
		return fabricStats{
			msgs: s.MsgsSent.Load(), bytes: s.BytesSent.Load(),
			crossBytes: s.BytesCross.Load(), dropped: s.MsgsDropped.Load(),
		}
	}
	for _, tr := range c.trs {
		s := tr.Stats()
		f.msgs += s.FramesSent
		f.bytes += s.BytesSent
		f.dropped += s.Dropped()
		f.redials += s.Redials
	}
	return f
}

func (a fabricStats) sub(b fabricStats) fabricStats {
	return fabricStats{a.msgs - b.msgs, a.bytes - b.bytes, a.crossBytes - b.crossBytes, a.dropped - b.dropped, a.redials - b.redials}
}

// processCPU is the process' user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats reads the Go runtime's own accounting without stopping the
// world.
type runtimeStats struct {
	allocBytes uint64
	gcCPU      float64 // seconds, updated at the end of each GC cycle
	heapBytes  uint64
	goroutines uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(s)
	return runtimeStats{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// pass is one cluster's life: set up, warm up, measure, drain, stop, check.
type pass struct {
	c          *cluster
	client     clientStats
	setup      []float64       // seconds per set-up
	cpuAt      []time.Duration // process CPU at each slice boundary
	cpu        time.Duration   // process CPU over the window
	elapsed    time.Duration   // window as observed by the generator
	fabric     fabricStats     // over the window
	rt0, rt1   runtimeStats    // at the window's edges
	heapPeak   uint64          // traced passes: sampled at 20 Hz over the window
	gorPeak    uint64
	violations []string
	notes      []string
}

// setUp builds a cluster and starts its event loops, timed.
func setUp(w workload, o options, traced bool) (*cluster, float64, error) {
	runtime.GC() // the previous cluster's garbage is not this set-up's cost
	t0 := time.Now()
	c, err := build(w, o.seed, traced, traced && o.traceOut != "")
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	c.start()
	return c, time.Since(t0).Seconds(), nil
}

// extraSetups sets a cluster up and tears it down n times and returns the
// set-up times.
func extraSetups(w workload, o options, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		c, s, err := setUp(w, o, false)
		if err != nil {
			return nil, err
		}
		c.stop()
		times = append(times, s)
	}
	return times, nil
}

func runPass(w workload, o options, traced bool) (*pass, error) {
	c, s, err := setUp(w, o, traced)
	if err != nil {
		return nil, err
	}
	p := &pass{c: c, setup: []float64{s}}

	g := &loadgen{
		c: c, gen: newGenerator(w, o.seed), self: types.ClientNode(clientID),
		inflight: make(map[types.Digest]*flight), spans: traced && o.traceOut != "",
	}
	if w.rate > 0 {
		g.due = schedule(o.seed, w.rate*o.scale/clientBatch, o.warm, o.window)
	}
	var fab0 fabricStats
	stopSampler := func() {}
	g.onEdge = func(i int) {
		switch i {
		case 0:
			if traced {
				stopSampler = p.samplePeaks()
			}
			p.rt0, fab0 = readRuntime(), c.fabricStats()
			c.on.Store(true)
		case slices:
			c.on.Store(false)
		}
		p.cpuAt = append(p.cpuAt, processCPU())
		if i == slices {
			p.fabric = c.fabricStats().sub(fab0)
			p.rt1 = readRuntime()
			stopSampler()
		}
	}
	p.client = g.run(w, o.warm, o.window, o.scale)
	p.cpu = p.cpuAt[slices] - p.cpuAt[0]
	p.elapsed = p.client.end().Sub(p.client.start())
	time.Sleep(settle)
	c.stop()
	p.violations, p.notes = check(c, &p.client)
	return p, nil
}

// samplePeaks tracks heap and goroutine peaks until the returned stop
// function is called; stop waits for the sampler to exit.
func (p *pass) samplePeaks() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s := readRuntime()
			p.heapPeak = max(p.heapPeak, s.heapBytes)
			p.gorPeak = max(p.gorPeak, s.goroutines)
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// metricValue is one named measurement.
type metricValue struct {
	name  string
	unit  string
	value float64
}

// result is what one benchmark run of one workload reports. A traced run
// carries both sets: e2e from its untraced reference pass, layers from the
// traced pass and the leaf-layer replay.
type result struct {
	workload   string
	traced     bool
	attempted  int
	failed     int
	violations []string
	notes      []string
	e2e        []metricValue
	layers     []metricValue
	samples    int
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// runWorkload is one contract run: untraced it measures the end-to-end
// metrics over the whole window; traced it spends half the window on an
// untraced reference pass and half on the traced pass, so the overhead of
// tracing is measured inside the same run.
func runWorkload(w workload, o options, traced bool) (*result, error) {
	res := &result{workload: w.name, traced: traced}
	passes := []*pass{}
	if !traced {
		// setup_s is the median of o.setups set-ups, half of them before
		// the measured pass and half after it, so that one burst of host
		// interference cannot cover most of them.
		before, err := extraSetups(w, o, (o.setups-1)/2)
		if err != nil {
			return nil, err
		}
		p, err := runPass(w, o, false)
		if err != nil {
			return nil, err
		}
		after, err := extraSetups(w, o, o.setups-1-len(before))
		if err != nil {
			return nil, err
		}
		p.setup = append(append(p.setup, before...), after...)
		passes = append(passes, p)
		res.e2e = endToEndMetrics(w, p)
	} else {
		half := o
		half.window = o.window / 2
		ref, err := runPass(w, half, false)
		if err != nil {
			return nil, err
		}
		tp, err := runPass(w, half, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ref, tp)
		res.e2e = endToEndMetrics(w, ref)
		rp, err := replay(w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		res.layers = layerMetrics(w, ref, tp, rp)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, w.name, tp); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range passes {
		res.attempted += p.client.attempted
		res.failed += p.client.failed
		res.violations = append(res.violations, p.violations...)
		res.notes = append(res.notes, p.notes...)
		res.samples += len(p.client.lat)
		if p.client.txns == 0 {
			res.violations = append(res.violations, "no request completed inside the window")
		}
	}
	for _, m := range append(append([]metricValue{}, res.e2e...), res.layers...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.violations = append(res.violations, "metric "+m.name+" is not finite")
		}
	}
	return res, nil
}

// overSlices is the median, over the window's slices in which at least one
// request completed, of f(slice).
func (p *pass) overSlices(f func(i int) float64) float64 {
	var xs []float64
	for i := 0; i < slices; i++ {
		if p.client.sliceTxns[i] > 0 {
			xs = append(xs, f(i))
		}
	}
	return quantile(xs, 0.5)
}

// goodput of the open loop is the txns of the requests due inside the
// window over the time they took: the window, or longer when the last of
// them completed after it closed — pinned to the offered rate unless the
// cluster falls behind or requests fail. The closed loop has no offered
// rate; its goodput is the median slice's completions per second.
func (p *pass) goodput(w workload) float64 {
	if w.rate == 0 {
		return p.overSlices(func(i int) float64 {
			return div(float64(p.client.sliceTxns[i]), p.client.edges[i+1].Sub(p.client.edges[i]).Seconds())
		})
	}
	took := p.elapsed
	if p.client.lastDone.After(p.client.end()) {
		took = p.client.lastDone.Sub(p.client.start())
	}
	return div(float64(p.client.txns), took.Seconds())
}

// cpuPerTxn is the median slice's process CPU per committed txn.
func (p *pass) cpuPerTxn() float64 {
	return p.overSlices(func(i int) float64 {
		return us(p.cpuAt[i+1]-p.cpuAt[i]) / float64(p.client.sliceTxns[i])
	})
}

// latP50 is the median latency of the class most of the workload's requests
// belong to: cross-shard on cross, single-shard on the others. The plain
// median of a 70/30 mix sits in the trough between the two classes' modes
// (≈ 5 ms and ≈ 30 ms on tcp_mixed), where a few requests changing side
// move it by tens of percent from run to run; the minority class's median is
// printed with the per-layer metrics.
func (st *clientStats) latP50() float64 {
	if len(st.latCross) > len(st.latSingle) {
		return quantile(st.latCross, 0.5)
	}
	return quantile(st.latSingle, 0.5)
}

func endToEndMetrics(w workload, p *pass) []metricValue {
	return []metricValue{
		{"setup_s", "s", quantile(p.setup, 0.5)},
		{"goodput_tps", "txn/s", p.goodput(w)},
		{"lat_p50_ms", "ms", p.client.latP50()},
		{"cpu_us_per_txn", "us/txn", p.cpuPerTxn()},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// div is a/b, and 0 when b is 0: a layer that did no work reports 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
