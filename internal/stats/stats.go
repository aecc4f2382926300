// Package stats runs the paper's experiment tables over the workload
// suites and renders them in the paper's format: an absolute count for
// the reference column and +/- deltas for the others (Tables 2-5 of the
// CGO 2004 paper).
package stats

import (
	"context"
	"fmt"
	"strings"

	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

// Table is one rendered experiment table.
type Table struct {
	Title   string
	Note    string
	Columns []string // first column is the reference
	Rows    []Row
}

// Row is one benchmark suite's results; Cells are absolute counts
// (rendering converts trailing columns to deltas).
type Row struct {
	Benchmark string
	Cells     []int64
}

// String renders the table with the paper's +delta convention.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Benchmark)
		for i, v := range r.Cells {
			if i == 0 {
				fmt.Fprintf(&b, "%14d", v)
			} else {
				fmt.Fprintf(&b, "%+14d", v-r.Cells[0])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// suiteBuilders are the five suites in the paper's order, one table
// row each.
var suiteBuilders = [...]func() *workload.Suite{
	workload.VALcc1, workload.VALcc2, workload.Examples,
	workload.LAILarge, workload.SPECint,
}

// Checked, when true, runs every table experiment in checked mode
// (pipeline.Config.Verify): IR invariants are re-verified after each
// pass. The verifier only reads the IR, so the tables come out
// byte-identical — ssabench -verify exists to prove exactly that.
var Checked bool

// Parallel bounds the worker pool the tables run their pipeline jobs
// on. The default, 1, runs them serially; n > 1 uses n workers, and 0
// uses GOMAXPROCS, as pipeline.WithParallelism does. The unit of work
// is one suite function running every column of the call on its own
// snapshot of the function's SSA master, so results and trace streams
// are identical at any setting. ssabench -parallel sets this.
var Parallel = 1

// Context, when non-nil, bounds every table batch: once it is done,
// no further suite is converted, queued pipeline jobs are skipped and
// in-flight ones stop at their next pass boundary, surfacing as a
// table error wrapping ctx.Err().
// ssabench sets this from its signal context so an interrupt stops the
// worker pool instead of finishing all tables. Nil means uncancellable.
var Context context.Context

// Metrics, when non-nil, attaches the registry to every table batch
// (pipeline.WithBatchMetrics): per-pass histograms, pass-counter
// mirrors, batch gauges and the MAXLIVE distribution all accumulate
// there while the tables run. Nil (the default) keeps the pipeline's
// zero-allocation fast path. ssabench -metrics-out / -metrics-addr set
// this to metrics.Default.
var Metrics *metrics.Registry

// column is one table column: its header, the configuration its cells
// run, the experiment label traces carry, and whether its cells total
// weighted (5^depth) or plain move counts.
type column struct {
	name     string
	exp      string
	conf     pipeline.Config
	weighted bool
}

// tableDef is one experiment table as data.
type tableDef struct {
	title, note string
	cols        []column
}

// presetCols returns the columns named after Table 1 experiments.
func presetCols(exps ...string) []column {
	cols := make([]column, len(exps))
	for i, exp := range exps {
		conf, err := pipeline.Preset(exp)
		if err != nil {
			panic(err) // the definitions below name presets only
		}
		cols[i] = column{name: exp, exp: exp, conf: conf}
	}
	return cols
}

// table5Cols returns Table 5's columns: the full Lphi,ABI+C pipeline
// with the pinning-phi variant swapped, totalling weighted moves.
func table5Cols() []column {
	var cols []column
	for _, v := range []struct {
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	} {
		c := presetCols(pipeline.ExpLphiABIC)[0]
		c.name, c.exp, c.weighted = v.name, pipeline.ExpLphiABIC+"/"+v.name, true
		c.conf.Coalesce = v.opt
		cols = append(cols, c)
	}
	return cols
}

// tableDefs are Tables 2–5 in order.
var tableDefs = [...]tableDef{
	{
		// Comparison of move instruction count with no ABI constraint:
		// Lφ+C vs C vs Sφ+C.
		title: "Table 2: move instruction count with no ABI constraint",
		note:  "deltas relative to Lphi+C",
		cols:  presetCols(pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC),
	},
	{
		// Comparison of move instruction count with renaming constraints:
		// Lφ,ABI+C vs Sφ+LABI+C vs LABI+C vs C.
		title: "Table 3: move instruction count with renaming constraints",
		note:  "deltas relative to Lphi,ABI+C",
		cols:  presetCols(pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC, pipeline.ExpLABIC, pipeline.ExpC3),
	},
	{
		// The "order of magnitude" table: moves remaining before any
		// coalescing when φs (Sφ: ABI naive) or the ABI (LABI: φ naive)
		// are handled naively.
		title: "Table 4: order of magnitude (no aggressive coalescing)",
		note:  "Sphi adds naive ABI moves; LABI adds naive phi moves; deltas vs Lphi,ABI",
		cols:  presetCols(pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI),
	},
	{
		// The weighted (5^depth) variant comparison of the paper's
		// algorithm: base, depth-constrained, optimistic, pessimistic.
		title: "Table 5: weighted (5^depth) move count, variants of the algorithm",
		note:  "full pipeline Lphi,ABI+C with the pinning-phi variant swapped",
		cols:  table5Cols(),
	},
}

// buildTables renders defs from one pass over the suites. All the
// columns of the call form one pipeline.Plan, so each suite function
// runs as one job that shares every pass prefix its columns have in
// common, and the job's results are split back into the tables' cells.
// A row is one batch: the suite is built and converted to SSA form
// (pipeline.BuildSSA) on the calling goroutine, and every job
// snapshots its function's frozen master inside the worker that runs
// it, starting the pipeline after construction (pipeline.Job.SSA). A
// Snapshot preserves IDs and ordering exactly, and construction yields
// the same function under every configuration, so each cell equals a
// run that converts a freshly built function itself. Rows run, and
// replay their traces, in order, and a row's suite, jobs and results
// become garbage before the next row starts, so the tables and the
// trace stream are byte-identical at any parallelism. A done Context
// converts no further suite.
func buildTables(defs []tableDef, tr obs.Tracer) ([]*Table, error) {
	var cols []pipeline.Column
	var weighted []bool
	tables := make([]*Table, len(defs))
	for ti, d := range defs {
		t := &Table{Title: d.title, Note: d.note}
		for _, c := range d.cols {
			t.Columns = append(t.Columns, c.name)
			conf := c.conf
			conf.Verify = Checked
			cols = append(cols, pipeline.Column{Config: conf, Experiment: c.exp})
			weighted = append(weighted, c.weighted)
		}
		tables[ti] = t
	}
	plan, err := pipeline.NewPlan(cols...)
	if err != nil {
		return nil, err
	}
	ctx := Context
	if ctx == nil {
		ctx = context.Background()
	}

	for _, build := range suiteBuilders {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		suite := build()
		jobs := make([]pipeline.Job, len(suite.Funcs))
		for fi, f := range suite.Funcs {
			info, err := pipeline.BuildSSA(f)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", suite.Name, f.Name, err)
			}
			f.Freeze() // masters are immutable for the row; jobs snapshot them
			jobs[fi] = pipeline.Job{
				Build: f.Snapshot,
				Plan:  plan,
				SSA:   info,
			}
		}
		results := pipeline.RunBatchCtx(ctx, jobs,
			pipeline.WithParallelism(Parallel),
			pipeline.WithBatchTracer(tr),
			pipeline.WithBatchMetrics(Metrics))
		cells := make([]int64, len(cols))
		for fi, res := range results {
			if res.Err != nil {
				return nil, fmt.Errorf("%s/%s: %w", suite.Name, suite.Funcs[fi].Name, res.Err)
			}
			for ci, r := range res.Results {
				if weighted[ci] {
					cells[ci] += r.WeightedMoves
				} else {
					cells[ci] += int64(r.Moves)
				}
			}
		}
		for _, t := range tables {
			n := len(t.Columns)
			t.Rows = append(t.Rows, Row{Benchmark: suite.Name, Cells: cells[:n:n]})
			cells = cells[n:]
		}
	}
	return tables, nil
}

// Table1 renders the experiment legend — which passes each named
// experiment activates, mirroring the paper's Table 1.
func Table1() string {
	rows := []struct{ name string }{
		{pipeline.ExpLphiC}, {pipeline.ExpC2}, {pipeline.ExpSphiC},
		{pipeline.ExpLphiABIC}, {pipeline.ExpSphiLABIC}, {pipeline.ExpLABIC}, {pipeline.ExpC3},
		{pipeline.ExpLphiABI}, {pipeline.ExpSphi}, {pipeline.ExpLABI},
		{pipeline.ExpPrePin}, {pipeline.ExpPsi},
	}
	cols := []struct {
		title string
		on    func(pipeline.Config) bool
	}{
		{"Sreedhar", func(c pipeline.Config) bool { return c.Sreedhar }},
		{"pinCSSA", func(c pipeline.Config) bool { return c.Sreedhar }},
		{"pinSP", func(c pipeline.Config) bool { return true }},
		{"pinABI", func(c pipeline.Config) bool { return c.ABI }},
		{"prePin", func(c pipeline.Config) bool { return c.PrePin }},
		{"pinPhi", func(c pipeline.Config) bool { return c.PhiCoalesce }},
		{"psi", func(c pipeline.Config) bool { return c.Psi }},
		{"out-of-pSSA", func(c pipeline.Config) bool { return !c.NaiveOut }},
		{"NaiveABI", func(c pipeline.Config) bool { return c.NaiveABI }},
		{"Coalescing", func(c pipeline.Config) bool { return c.Chaitin }},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: implemented experiment configurations\n")
	fmt.Fprintf(&b, "%-14s", "experiment")
	for _, c := range cols {
		fmt.Fprintf(&b, "%12s", c.title)
	}
	b.WriteString("\n")
	for _, r := range rows {
		conf, _ := pipeline.Preset(r.name)
		fmt.Fprintf(&b, "%-14s", r.name)
		for _, c := range cols {
			mark := ""
			if c.on(conf) {
				mark = "*"
			}
			fmt.Fprintf(&b, "%12s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 reproduces "Comparison of move instruction count with no ABI
// constraint": Lφ+C vs C vs Sφ+C.
func Table2() (*Table, error) { return Table2Traced(nil) }

// Table2Traced is Table2 with a pipeline tracer attached to every run
// (nil for none); events are labelled with the experiment name.
func Table2Traced(tr obs.Tracer) (*Table, error) { return oneTable(2, tr) }

// Table3 reproduces "Comparison of move instruction count with renaming
// constraints": Lφ,ABI+C vs Sφ+LABI+C vs LABI+C vs C.
func Table3() (*Table, error) { return Table3Traced(nil) }

// Table3Traced is Table3 with a pipeline tracer attached.
func Table3Traced(tr obs.Tracer) (*Table, error) { return oneTable(3, tr) }

// Table4 reproduces the "order of magnitude" table: moves remaining
// before any coalescing when φs (Sφ: ABI naive) or the ABI (LABI: φ
// naive) are handled naively.
func Table4() (*Table, error) { return Table4Traced(nil) }

// Table4Traced is Table4 with a pipeline tracer attached.
func Table4Traced(tr obs.Tracer) (*Table, error) { return oneTable(4, tr) }

// Table5 reproduces the weighted (5^depth) variant comparison of the
// paper's algorithm: base, depth-constrained, optimistic, pessimistic.
func Table5() (*Table, error) { return Table5Traced(nil) }

// Table5Traced is Table5 with a pipeline tracer attached; events are
// labelled "Lphi,ABI+C/<variant>".
func Table5Traced(tr obs.Tracer) (*Table, error) { return oneTable(5, tr) }

// oneTable renders Table n alone: its columns share pass prefixes only
// among themselves.
func oneTable(n int, tr obs.Tracer) (*Table, error) {
	ts, err := buildTables(tableDefs[n-2:n-1], tr)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// AllTables runs Tables 2-5 in order.
func AllTables() ([]*Table, error) { return AllTablesTraced(nil) }

// AllTablesTraced runs Tables 2-5 in order with a pipeline tracer
// attached to every experiment run. The four tables' 14 columns form
// one plan, so each suite function goes through SSA construction once
// per call and runs each pass prefix its columns share once.
func AllTablesTraced(tr obs.Tracer) ([]*Table, error) { return buildTables(tableDefs[:], tr) }
