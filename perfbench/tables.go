package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"strings"
	"time"

	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/pipeline"
	"outofssa/internal/stats"
	"outofssa/internal/workload"
)

// expectedTables is Tables 2–5 exactly as ssabench prints them, kept
// from a run of the reproduction; a round whose rendering differs by a
// byte fails.
//
//go:embed testdata/tables_2_5.txt
var expectedTables string

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow start from reading as a regression.
const setupRepeats = 3

// tableCol is one column of Tables 2–5 as stats runs it: one pipeline
// job per suite function under conf, labelled exp, with the cell
// summing weighted (Table 5) or plain move counts.
type tableCol struct {
	exp      string
	conf     pipeline.Config
	weighted bool
}

// tableColumns lists the 14 columns of Tables 2–5 in the order stats
// renders them. The traced replay re-runs exactly these jobs; their
// summed moves must reproduce the table cells, which ties the replay to
// what stats.AllTables ran.
func tableColumns() ([]tableCol, error) {
	var cols []tableCol
	for _, exp := range []string{
		pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC, // Table 2
		pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC, pipeline.ExpLABIC, pipeline.ExpC3, // Table 3
		pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI, // Table 4
	} {
		conf, err := pipeline.Preset(exp)
		if err != nil {
			return nil, err
		}
		cols = append(cols, tableCol{exp: exp, conf: conf})
	}
	for _, v := range []struct { // Table 5
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	} {
		conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
		if err != nil {
			return nil, err
		}
		conf.Coalesce = v.opt
		cols = append(cols, tableCol{exp: pipeline.ExpLphiABIC + "/" + v.name, conf: conf, weighted: true})
	}
	return cols, nil
}

// buildSuites builds the five paper suites in table-row order and
// freezes every function, so jobs can take copy-on-write snapshots.
func buildSuites() []*workload.Suite {
	suites := []*workload.Suite{
		workload.VALcc1(), workload.VALcc2(), workload.Examples(),
		workload.LAILarge(), workload.SPECint(),
	}
	for _, s := range suites {
		for _, f := range s.Funcs {
			f.Freeze()
		}
	}
	return suites
}

// renderTables prints tables the way ssabench does.
func renderTables(ts []*stats.Table) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// runTables is the tables workload: stats.AllTables at parallelism 2,
// which is exactly `ssabench -parallel 2`, as a closed loop of rounds.
// A round runs every (suite function × column) pipeline job once; its
// corpus is fixed, so the seed does not change it.
func runTables(opt options) (*report, error) {
	stats.Parallel = 2
	cols, err := tableColumns()
	if err != nil {
		return nil, err
	}
	rep := newReport(opt)

	round := func() ([]*stats.Table, bool) {
		ts, err := stats.AllTables()
		return ts, err == nil && renderTables(ts) == expectedTables
	}

	var suites []*workload.Suite
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		suites = buildSuites()
		_, ok := round()
		setups = append(setups, time.Since(t0).Seconds())
		if !ok {
			return nil, fmt.Errorf("warm-up round does not reproduce Tables 2–5")
		}
		runtime.GC() // the previous set-up's suites are garbage now
	}
	funcs := 0
	for _, s := range suites {
		funcs += len(s.Funcs)
	}
	jobs := funcs * len(cols)

	// The timed phase. In a traced run every other round records its
	// root span, so the run can compare itself against its own untraced
	// rounds; the jobs are replayed afterwards.
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var all, plain, traced delta
	var last []*stats.Table
	rounds, failedRounds := 0, 0
	for rounds == 0 || all.wall.Seconds() < opt.seconds {
		withSpans := tr != nil && rounds%2 == 1
		a := readCounters()
		ts, ok := round()
		b := readCounters()
		lat := ms(b.wall.Sub(a.wall))
		sg := seg{n: jobs, p50: lat, p99: lat}
		all.add(a, b, sg)
		if withSpans {
			traced.add(a, b, sg)
			tr.add(-1-rounds, -1, "stats.AllTables", tr.at(a.wall), tr.at(b.wall), false)
		} else {
			plain.add(a, b, sg)
		}
		if !ok {
			failedRounds++
		} else {
			last = ts
		}
		rounds++
	}
	rss := maxRSSMB()

	rep.attempted = rounds * jobs
	rep.failed = failedRounds * jobs
	rep.e2e["setup_s"] = median(setups)
	// As on the serve workloads, p99_ms is the median segment's p99. A
	// segment is one round, which is its own p99, so it equals p50_ms: a
	// round has no tail the benchmark can see, and the slowest of a
	// handful of rounds would only measure the host's worst moment. The
	// info line keeps the slowest round.
	lats := all.perSeg(segP50)
	rep.e2e["p50_ms"] = median(lats)
	rep.e2e["p99_ms"] = median(all.perSeg(segP99))
	moves := 0.0
	if last != nil {
		for _, t := range last {
			for _, r := range t.Rows {
				for _, c := range r.Cells {
					moves += float64(c)
				}
			}
		}
	}
	rep.e2e["moves_total"] = moves
	common(rep, &all, rounds*jobs, rss)
	rep.info["rounds"] = rounds
	rep.info["jobs_per_round"] = jobs
	rep.info["round_ms"] = latencyInfo(lats)
	rep.info["setup_s"] = setups

	if tr != nil {
		overhead(rep, &plain, &traced)
		if err := replayTables(tr, rep, suites, cols, last); err != nil {
			return nil, err
		}
		if err := tr.write(spanPath(opt), rep.info); err != nil {
			return nil, err
		}
		rep.info["spans"] = spanPath(opt)
	}
	return rep, nil
}

// replayTables re-runs one round's jobs serially, each as its own
// operation: the root span stands for the RunBatch worker running the
// job, with the job's snapshot and its pipeline.Run (with stats' exact
// options) as children, and the pass-by-pass replay of the same job
// below pipeline.Run. Every replay must print byte-identical to its
// pipeline.Run, and the replayed moves must add up to the table cells.
func replayTables(tr *tracer, rep *report, suites []*workload.Suite, cols []tableCol, want []*stats.Table) error {
	if want == nil {
		return fmt.Errorf("no round reproduced the tables; nothing to replay against")
	}
	var counters interference.Counters
	op := 0
	mismatches := 0
	for si, suite := range suites {
		for ci, col := range cols {
			var cell int64
			for _, master := range suite.Funcs {
				root := tr.begin(op, -1, "stats.job")
				s := tr.begin(op, root, "ir.Func.Snapshot")
				f := master.Snapshot()
				tr.finish(s)
				p := tr.begin(op, root, "pipeline.Run")
				_, err := pipeline.Run(f, col.conf, pipeline.WithExperiment(col.exp))
				tr.finish(p)
				tr.finish(root)
				if err != nil {
					return fmt.Errorf("%s/%s under %s: %w", suite.Name, f.Name, col.exp, err)
				}
				g := master.Snapshot()
				r, err := replay(stepper{t: tr, op: op, parent: p}, g, col.conf)
				if err != nil {
					return fmt.Errorf("%s/%s under %s: %w", suite.Name, f.Name, col.exp, err)
				}
				if g.String() != f.String() {
					mismatches++
				}
				if col.weighted {
					cell += r.weightedMoves
				} else {
					cell += int64(r.moves)
				}
				addCounters(&counters, r.interference)
				op++
			}
			if got := tableCell(want, ci, si); got != cell {
				return fmt.Errorf("replayed %s/%s sums to %d moves, the table says %d", suite.Name, col.exp, cell, got)
			}
		}
	}
	if mismatches > 0 {
		rep.failed += mismatches
		rep.info["replay_mismatches"] = mismatches
	}
	sp, err := tr.split(func(op int) bool { return op >= 0 })
	if err != nil {
		return err
	}
	sp.fill(rep)
	interferenceLayers(rep, &counters, op)
	return nil
}

// tableCell finds column ci (counted across Tables 2–5) of row si.
func tableCell(ts []*stats.Table, ci, si int) int64 {
	for _, t := range ts {
		if ci < len(t.Columns) {
			return t.Rows[si].Cells[ci]
		}
		ci -= len(t.Columns)
	}
	return -1
}
