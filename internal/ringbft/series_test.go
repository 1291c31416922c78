package ringbft

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/metrics"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// seriesShape reduces a Prometheus-text exposition to its shape: one line
// per family and label-key set — "type name{keys} xN", N the number of
// series — with every value dropped, so the golden pins what a scrape can
// see without pinning what the replica did.
func seriesShape(text string) string {
	typ := make(map[string]string)
	count := make(map[string]int)
	var family string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(f, " ")
			family, typ[name] = name, t
			continue
		}
		if strings.HasPrefix(line, family+"_bucket") || strings.HasPrefix(line, family+"_sum") {
			continue // a histogram's series is counted once, on _count
		}
		var keys []string
		if _, lbl, ok := strings.Cut(line, "{"); ok {
			lbl, _, _ = strings.Cut(lbl, "}")
			for _, kv := range strings.Split(lbl, ",") {
				k, _, _ := strings.Cut(kv, "=")
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		count[fmt.Sprintf("%s %s{%s}", typ[family], family, strings.Join(keys, ","))]++
	}
	lines := make([]string, 0, len(count))
	for k, n := range count {
		lines = append(lines, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// registeredSeries builds one replica on a fresh registry — backed by a WAL
// on fs, or in memory when fs is nil — and returns the shape of what it
// registered before handling any message.
func registeredSeries(t *testing.T, fs wal.FS) string {
	t.Helper()
	cfg := types.DefaultConfig(2, 4)
	self := types.ReplicaNode(1, 2)
	kg := crypto.NewKeygen(7)
	peers := make([]types.NodeID, 4)
	for i := range peers {
		peers[i] = types.ReplicaNode(1, i)
		kg.Register(peers[i])
	}
	ring, err := kg.Ring(self)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	opts := Options{
		Config: cfg, Shard: 1, Self: self, Peers: peers,
		Auth: ring, Send: func(types.NodeID, *types.Message) {}, Metrics: reg,
	}
	if fs != nil {
		cfg.DataDir = "data"
		if opts.Durability, opts.Recovered, err = OpenDurability(cfg, self, fs); err != nil {
			t.Fatal(err)
		}
	}
	New(opts).Preload(16)
	return seriesShape(reg.Snapshot())
}

// TestRegisteredSeriesGolden pins the /metrics surface of a RingBFT replica
// — every family, its type and label keys, and its series count — for an
// in-memory replica and for a durable one, which register the same set.
// Dashboards and benchmark/layers.go read these names; a change to the set
// is deliberate and rewrites the golden with what the failure prints.
func TestRegisteredSeriesGolden(t *testing.T) {
	path := filepath.Join("testdata", "series.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fs   wal.FS
	}{{"in-memory", nil}, {"memfs-wal", wal.NewMemFS()}} {
		if got := registeredSeries(t, tc.fs); got != string(want) {
			t.Errorf("%s replica registers\n%s\nwant (%s)\n%s", tc.name, got, path, want)
		}
	}
}
