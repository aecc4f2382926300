package stats_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/stats"
)

func TestTable1Legend(t *testing.T) {
	s := stats.Table1()
	for _, want := range []string{"Lphi+C", "Sphi+LABI+C", "C(naiveABI)", "Coalescing", "pinABI"} {
		if !strings.Contains(s, want) {
			t.Errorf("legend missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	tb, err := stats.OneTable(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("want 5 suite rows, got %d", len(tb.Rows))
	}
	if len(tb.Columns) != 3 {
		t.Fatalf("want 3 columns, got %d", len(tb.Columns))
	}
	for _, r := range tb.Rows {
		if len(r.Cells) != len(tb.Columns) {
			t.Fatalf("%s: ragged row", r.Benchmark)
		}
		for _, c := range r.Cells {
			if c < 0 {
				t.Fatalf("%s: negative move count %d", r.Benchmark, c)
			}
		}
	}
	rendered := tb.String()
	if !strings.Contains(rendered, "VALcc1") || !strings.Contains(rendered, "SPECint") {
		t.Fatalf("rendering missing suites:\n%s", rendered)
	}
	// The delta convention: later columns render as +N or -N.
	if !strings.Contains(rendered, "+") {
		t.Fatalf("no deltas rendered:\n%s", rendered)
	}
}

func TestRenderingDeltas(t *testing.T) {
	tb := &stats.Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    []stats.Row{{Benchmark: "x", Cells: []int64{10, 13}}},
	}
	s := tb.String()
	if !strings.Contains(s, "10") || !strings.Contains(s, "+3") {
		t.Fatalf("delta rendering wrong:\n%s", s)
	}
}

// TestTablesGolden pins every cell of Tables 2–5: they are rendered at
// Parallel 2, plain and in checked mode, and must match the committed
// rendering byte for byte.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer func(parallel int, checked bool) {
		stats.Parallel, stats.Checked = parallel, checked
	}(stats.Parallel, stats.Checked)
	stats.Parallel = 2
	for _, checked := range []bool{false, true} {
		stats.Checked = checked
		ts, err := stats.AllTables()
		if err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		var b strings.Builder
		for _, tb := range ts {
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
		if got := b.String(); got != string(want) {
			t.Errorf("checked=%v: tables differ from testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", checked, got, want)
		}
	}
}

// TestCancelledTableReturnsCause: a table run whose context is already
// done stops without converting any suite or building any job and
// returns an error wrapping the context's cause, serially and on the
// worker pool.
func TestCancelledTableReturnsCause(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer func(c context.Context, parallel int) {
		stats.Context, stats.Parallel = c, parallel
	}(stats.Context, stats.Parallel)
	stats.Context = ctx
	for _, parallel := range []int{1, 2} {
		stats.Parallel = parallel
		before := analysis.Stats().DominatorsRequests
		if _, err := stats.OneTable(2, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("Parallel %d: err = %v, want one wrapping context.Canceled", parallel, err)
		}
		if n := analysis.Stats().DominatorsRequests - before; n != 0 {
			t.Errorf("Parallel %d: %d dominator requests, want none: a cancelled run converted a suite", parallel, n)
		}
	}
}
