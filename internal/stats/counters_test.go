package stats_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outofssa/internal/obs/metrics"
	"outofssa/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/counters_*.txt")

// TestCountersGolden pins every deterministic count the table runs
// produce: checked Table 2, plain Table 2 and all four tables, each run
// serially with a fresh registry attached. A counter that moves — a
// kill query more, a snapshot more per job, a liveness compute less —
// shows as a one-line diff against
// testdata/counters_{t2_checked,t2,all}.txt. After a deliberate change,
// regenerate them with
//
//	go test ./internal/stats/ -run TestCountersGolden -update
//
// The process-wide laoc_analysis_* and laoc_ir_* counters are read as
// their change over the run, so earlier tests and -count do not matter.
func TestCountersGolden(t *testing.T) {
	defer func(parallel int, checked bool, reg *metrics.Registry) {
		stats.Parallel, stats.Checked, stats.Metrics = parallel, checked, reg
	}(stats.Parallel, stats.Checked, stats.Metrics)
	stats.Parallel = 1
	table2 := func() error { _, err := stats.OneTable(2, nil); return err }
	allTables := func() error { _, err := stats.AllTables(); return err }
	for _, run := range []struct {
		golden  string
		checked bool
		tables  func() error
	}{
		{"counters_t2_checked.txt", true, table2},
		{"counters_t2.txt", false, table2},
		{"counters_all.txt", false, allTables},
	} {
		stats.Checked = run.checked
		stats.Metrics = metrics.New()
		before := metrics.Default.Snapshot()
		if err := run.tables(); err != nil {
			t.Fatalf("%s: %v", run.golden, err)
		}
		got := renderCounters(stats.Metrics.Snapshot(), before, metrics.Default.Snapshot())
		path := filepath.Join("testdata", run.golden)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if got != string(want) {
			t.Errorf("counters differ from %s (-want +got):\n%s", path, lineDiff(string(want), got))
		}
	}
}

// renderCounters renders one sorted line per counter cell of reg, one
// per histogram with its observation count (plus sum, min and max when
// the histogram is deterministic), and one per process-wide
// laoc_analysis_* or laoc_ir_* counter with its change from before to
// after. Gauges, which read zero once a run is over, and the sums of
// wall-time histograms, which vary from run to run, are left out.
func renderCounters(reg, before, after *metrics.Snapshot) string {
	var lines []string
	for _, c := range reg.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", cell(c.Name, c.Labels), c.Value))
	}
	for _, h := range reg.Histograms {
		line := fmt.Sprintf("histogram %s count=%d", cell(h.Name, h.Labels), h.Count)
		if h.Deterministic {
			line += fmt.Sprintf(" sum=%d min=%d max=%d", h.Sum, h.Min, h.Max)
		}
		lines = append(lines, line)
	}
	start := map[string]int64{}
	for _, c := range before.Counters {
		start[cell(c.Name, c.Labels)] = c.Value
	}
	for _, c := range after.Counters {
		if strings.HasPrefix(c.Name, "laoc_analysis_") || strings.HasPrefix(c.Name, "laoc_ir_") {
			k := cell(c.Name, c.Labels)
			lines = append(lines, fmt.Sprintf("counter %s %d", k, c.Value-start[k]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// cell renders a metric cell as name{key="value",...}.
func cell(name string, labels []metrics.Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// lineDiff lists the lines only want has (-) and the lines only got
// has (+).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}
