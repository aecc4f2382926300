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
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
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

// ssaSuite is one suite as the jobs of a table call read it: every
// function converted to SSA form in place (pipeline.BuildSSA) and
// frozen, beside the construction Info its jobs share read-only.
type ssaSuite struct {
	*workload.Suite
	infos []*ssa.Info
}

// suites holds the rows of one table call, TableN or AllTables. Every
// column of every table in the call snapshots the same masters, and
// nothing here outlives the call.
type suites [len(suiteBuilders)]*ssaSuite

// row returns suite i, building and converting it on the calling
// goroutine the first time a table needs it. Construction does not
// depend on the configuration, so one conversion serves every column.
// A done Context converts nothing.
func (ss *suites) row(i int) (*ssaSuite, error) {
	if ss[i] != nil {
		return ss[i], nil
	}
	if Context != nil {
		if err := Context.Err(); err != nil {
			return nil, err
		}
	}
	s := &ssaSuite{Suite: suiteBuilders[i]()}
	s.infos = make([]*ssa.Info, len(s.Funcs))
	for fi, f := range s.Funcs {
		info, err := pipeline.BuildSSA(f)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Name, f.Name, err)
		}
		f.Freeze() // masters are immutable for the call; jobs snapshot them
		s.infos[fi] = info
	}
	ss[i] = s
	return s, nil
}

// Checked, when true, runs every table experiment in checked mode
// (pipeline.Config.Verify): IR invariants are re-verified after each
// pass. The verifier only reads the IR, so the tables come out
// byte-identical — ssabench -verify exists to prove exactly that.
var Checked bool

// Parallel bounds the worker pool the tables run their pipeline jobs
// on. The default, 1, runs them serially; n > 1 uses n workers, and 0
// uses GOMAXPROCS, as pipeline.WithParallelism does. The unit of work
// is one (suite function × column) pipeline run on its own snapshot of
// the function's SSA master, so results and trace streams are
// identical at any setting. ssabench -parallel sets this.
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

// colSpec is one table column resolved to runnable form: the pass
// configuration, the experiment label traces carry, and whether the
// cell totals weighted (5^depth) or plain move counts.
type colSpec struct {
	conf     pipeline.Config
	exp      string
	weighted bool
}

// presetCol resolves a column named after a Table 1 experiment.
func presetCol(col string) (colSpec, error) {
	conf, err := pipeline.Preset(col)
	if err != nil {
		return colSpec{}, err
	}
	return colSpec{conf: conf, exp: col}, nil
}

// buildTable runs every (suite, column) cell as a batch of per-function
// pipeline jobs. Every job snapshots its function from the suite's
// frozen SSA master inside the worker that runs it, and starts the
// pipeline after SSA construction (pipeline.Job.SSA). ir.Snapshot
// preserves IDs and ordering exactly, and construction yields the same
// function under every configuration, so a job is indistinguishable
// from a run that converts a freshly built function itself — but the
// per-job copy is O(arena chunks) up front and slabs privatize lazily,
// only when the job's first pass actually writes them.
func (ss *suites) buildTable(title, note string, cols []string, tr obs.Tracer, spec func(col string) (colSpec, error)) (*Table, error) {
	t := &Table{Title: title, Note: note, Columns: cols}
	specs := make([]colSpec, len(cols))
	for i, c := range cols {
		sp, err := spec(c)
		if err != nil {
			return nil, err
		}
		sp.conf.Verify = Checked
		specs[i] = sp
	}

	// One batch per row: a row's jobs, their snapshots and results all
	// become garbage before the next row starts. Batches run (and
	// replay their traces) in row order, and jobs within a batch are
	// laid out in (column, function) order — the exact iteration order
	// of the old serial driver — so the rendered tables and the trace
	// stream are byte-identical at any parallelism.
	for si := range ss {
		suite, err := ss.row(si)
		if err != nil {
			return nil, err
		}
		row := Row{Benchmark: suite.Name, Cells: make([]int64, len(cols))}
		jobs := make([]pipeline.Job, 0, len(cols)*len(suite.Funcs))
		for ci := range cols {
			sp := specs[ci]
			for fi, f := range suite.Funcs {
				f := f
				jobs = append(jobs, pipeline.Job{
					Build:      func() *ir.Func { return f.Snapshot() },
					Config:     sp.conf,
					Experiment: sp.exp,
					SSA:        suite.infos[fi],
				})
			}
		}
		ctx := Context
		if ctx == nil {
			ctx = context.Background()
		}
		results := pipeline.RunBatchCtx(ctx, jobs,
			pipeline.WithParallelism(Parallel),
			pipeline.WithBatchTracer(tr),
			pipeline.WithBatchMetrics(Metrics))
		for i, res := range results {
			ci := i / len(suite.Funcs)
			if res.Err != nil {
				fn := suite.Funcs[i%len(suite.Funcs)]
				return nil, fmt.Errorf("%s/%s: %w", suite.Name, fn.Name, res.Err)
			}
			if specs[ci].weighted {
				row.Cells[ci] += res.Result.WeightedMoves
			} else {
				row.Cells[ci] += int64(res.Result.Moves)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
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
func Table2Traced(tr obs.Tracer) (*Table, error) { return new(suites).table2(tr) }

func (ss *suites) table2(tr obs.Tracer) (*Table, error) {
	return ss.buildTable(
		"Table 2: move instruction count with no ABI constraint",
		"deltas relative to Lphi+C",
		[]string{pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC},
		tr, presetCol)
}

// Table3 reproduces "Comparison of move instruction count with renaming
// constraints": Lφ,ABI+C vs Sφ+LABI+C vs LABI+C vs C.
func Table3() (*Table, error) { return Table3Traced(nil) }

// Table3Traced is Table3 with a pipeline tracer attached.
func Table3Traced(tr obs.Tracer) (*Table, error) { return new(suites).table3(tr) }

func (ss *suites) table3(tr obs.Tracer) (*Table, error) {
	return ss.buildTable(
		"Table 3: move instruction count with renaming constraints",
		"deltas relative to Lphi,ABI+C",
		[]string{pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC, pipeline.ExpLABIC, pipeline.ExpC3},
		tr, presetCol)
}

// Table4 reproduces the "order of magnitude" table: moves remaining
// before any coalescing when φs (Sφ: ABI naive) or the ABI (LABI: φ
// naive) are handled naively.
func Table4() (*Table, error) { return Table4Traced(nil) }

// Table4Traced is Table4 with a pipeline tracer attached.
func Table4Traced(tr obs.Tracer) (*Table, error) { return new(suites).table4(tr) }

func (ss *suites) table4(tr obs.Tracer) (*Table, error) {
	return ss.buildTable(
		"Table 4: order of magnitude (no aggressive coalescing)",
		"Sphi adds naive ABI moves; LABI adds naive phi moves; deltas vs Lphi,ABI",
		[]string{pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI},
		tr, presetCol)
}

// Table5 reproduces the weighted (5^depth) variant comparison of the
// paper's algorithm: base, depth-constrained, optimistic, pessimistic.
func Table5() (*Table, error) { return Table5Traced(nil) }

// Table5Traced is Table5 with a pipeline tracer attached; events are
// labelled "Lphi,ABI+C/<variant>".
func Table5Traced(tr obs.Tracer) (*Table, error) { return new(suites).table5(tr) }

func (ss *suites) table5(tr obs.Tracer) (*Table, error) {
	variants := []struct {
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	}
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.name
	}
	return ss.buildTable(
		"Table 5: weighted (5^depth) move count, variants of the algorithm",
		"full pipeline Lphi,ABI+C with the pinning-phi variant swapped",
		cols,
		tr,
		func(col string) (colSpec, error) {
			conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
			if err != nil {
				return colSpec{}, err
			}
			for _, v := range variants {
				if v.name == col {
					conf.Coalesce = v.opt
				}
			}
			return colSpec{conf: conf, exp: pipeline.ExpLphiABIC + "/" + col, weighted: true}, nil
		})
}

// AllTables runs Tables 2-5 in order.
func AllTables() ([]*Table, error) { return AllTablesTraced(nil) }

// AllTablesTraced runs Tables 2-5 in order with a pipeline tracer
// attached to every experiment run. The four tables share one set of
// converted suites, so each suite function goes through SSA
// construction once per call, not once per column.
func AllTablesTraced(tr obs.Tracer) ([]*Table, error) {
	var out []*Table
	ss := new(suites)
	for _, table := range []func(*suites, obs.Tracer) (*Table, error){
		(*suites).table2, (*suites).table3, (*suites).table4, (*suites).table5,
	} {
		t, err := table(ss, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
