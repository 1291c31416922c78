package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readRuns collects, per workload and metric, every value found in a saved
// benchmark output: any line that is a JSON result object counts, the rest
// (headers, tables) is skipped. A contract-form line carries no workload
// name and is filed under "-".
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r jsonResult
		if json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		name := r.Workload
		if name == "" {
			name = "-"
		}
		if runs[name] == nil {
			runs[name] = make(map[string][]float64)
		}
		for k, m := range r.Metrics {
			runs[name][k] = append(runs[name][k], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload × end-to-end metric, the median of each
// side, how much worse b is than a as a share of a, and the bound. It
// returns the process exit code: 1 when any metric is beyond its bound.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no benchmark results found", pathA)
	}
	b, errB := readRuns(pathB)
	if err == nil {
		err = errB
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(out, "%-10s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound")
	for _, n := range names {
		for _, m := range endToEnd {
			va, vb := a[n][m.name], b[n][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			worse := div(mb-ma, ma)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  BEYOND BOUND"
				code = 1
			}
			fmt.Fprintf(out, "%-10s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				n, m.name, ma, mb, 100*worse, 100*m.bound, verdict)
		}
	}
	return code
}
