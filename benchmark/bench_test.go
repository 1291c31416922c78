package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repo-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetricDef `json:"end_to_end"`
	PerLayer []jsonMetricDef `json:"per_layer"`
}

type jsonMetricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the tables in
// spec.go: workload names and reasons, end-to-end names, units, directions
// and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Bound == nil || d.Name != m.name || d.Unit != m.unit || d.Better != m.better || *d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, d, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("run_seconds %d or %d per-layer metrics out of range", doc.RunSeconds, len(doc.PerLayer))
	}
}

// TestSmoke runs every workload once, traced, with a short window at a
// quarter of its load, and checks that the run is correct and prints every
// metric BENCHMARK.json names exactly once, with its unit and a finite
// value — and nothing BENCHMARK.json does not name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts four clusters")
	}
	doc := loadBenchmarkJSON(t)
	o := options{seed: 1, window: time.Second, warm: 100 * time.Millisecond, setups: 1, scale: 0.25}
	for _, w := range workloads {
		res, err := runWorkload(w, o, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: violations %v, %d of %d requests failed", w.name, res.violations, res.failed, res.attempted)
		}
		for _, set := range []struct {
			kind string
			want []jsonMetricDef
			got  []metricValue
		}{{"end_to_end", doc.EndToEnd, res.e2e}, {"per_layer", doc.PerLayer, res.layers}} {
			seen := make(map[string]int)
			units := make(map[string]string)
			for _, m := range set.got {
				seen[m.name]++
				units[m.name] = m.unit
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s is %v", w.name, m.name, m.value)
				}
			}
			for _, d := range set.want {
				if seen[d.Name] != 1 || units[d.Name] != d.Unit {
					t.Errorf("%s: %s metric %s [%s] printed %d times with unit %q", w.name, set.kind, d.Name, d.Unit, seen[d.Name], units[d.Name])
				}
				delete(seen, d.Name)
			}
			for name := range seen {
				t.Errorf("%s: prints %s, which BENCHMARK.json does not list under %s", w.name, name, set.kind)
			}
		}
		for _, m := range res.e2e {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, m.name, m.value)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.99) != 7 {
		t.Error("quantile of an empty or one-element sample")
	}
}

// TestSeedDeterminism: the same seed gives the same due times and the same
// request digests, another seed gives others, and the measured window holds
// exactly rate × window arrivals whatever the seed.
func TestSeedDeterminism(t *testing.T) {
	const warm, window = 500 * time.Millisecond, 3 * time.Second
	a, b, c := schedule(3, 40, warm, window), schedule(3, 40, warm, window), schedule(4, 40, warm, window)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different due times")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same due times")
	}
	for _, due := range [][]time.Duration{a, c} {
		in := 0
		for i, d := range due {
			if i > 0 && d < due[i-1] {
				t.Fatalf("due times not sorted at %d", i)
			}
			if d >= warm {
				in++
			}
		}
		if in != 120 {
			t.Errorf("%d arrivals inside the window, want 120", in)
		}
	}
	for _, w := range workloads {
		g1, g2, g3 := newGenerator(w, 3), newGenerator(w, 3), newGenerator(w, 4)
		same := true
		for i := 0; i < 50; i++ {
			d1, d2, d3 := g1.NextBatch(clientID).Digest(), g2.NextBatch(clientID).Digest(), g3.NextBatch(clientID).Digest()
			if d1 != d2 {
				t.Fatalf("%s: same seed, different digest at request %d", w.name, i)
			}
			same = same && d1 == d3
		}
		if same {
			t.Errorf("%s: different seeds, same requests", w.name)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput, p50 float64) string {
		var buf bytes.Buffer
		buf.WriteString("# header line\n== table line\n")
		for i := 0; i < 3; i++ {
			line, err := json.Marshal(jsonResult{Workload: "single", Correct: true, Attempted: 1, Metrics: map[string]jsonMetric{
				"goodput_tps": {goodput + float64(i), "txn/s"}, "lat_p50_ms": {p50, "ms"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", 4000, 4.0)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("b", 3900, 4.4)); code != 0 {
		t.Errorf("within bounds, exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("c", 2900, 4.0)); code != 1 || !strings.Contains(out.String(), "BEYOND BOUND") {
		t.Errorf("goodput 27.5%% lower, exit %d:\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, write("d", 4400, 5.2)); code != 1 {
		t.Errorf("p50 30%% higher (and goodput better), exit %d", code)
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "missing")); code != 2 {
		t.Errorf("missing file, exit %d", code)
	}
}
