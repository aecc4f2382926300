package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"outofssa/internal/coalesce"
	"outofssa/internal/faultinject"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// plan compiles cols, failing t on an error.
func plan(t testing.TB, cols ...pipeline.Column) *pipeline.Plan {
	t.Helper()
	p, err := pipeline.NewPlan(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// presetColumns returns every named experiment as a column.
func presetColumns() []pipeline.Column {
	var cols []pipeline.Column
	for _, name := range pipeline.Presets() {
		conf, _ := pipeline.Preset(name)
		cols = append(cols, pipeline.Column{Config: conf, Experiment: name})
	}
	return cols
}

// batchJobs builds a job matrix large enough to keep 8 workers busy:
// every testprog function under every named experiment, one column
// per job, then every testprog function once more with all the
// experiments as one multi-column job. Each one-column job keeps the
// function it builds at its own index of the returned slice, for
// comparing final IR once the batch has run.
func batchJobs(t *testing.T) ([]pipeline.Job, []*ir.Func) {
	cols := presetColumns()
	all := plan(t, cols...)
	funcs := make([]*ir.Func, (len(cols)+1)*len(testprog.All()))
	var jobs []pipeline.Job
	for _, col := range cols {
		p := plan(t, col)
		for _, f := range testprog.All() {
			f, i := f, len(jobs)
			jobs = append(jobs, pipeline.Job{
				Build: func() *ir.Func { funcs[i] = f.Clone(); return funcs[i] },
				Plan:  p,
			})
		}
	}
	for _, f := range testprog.All() {
		jobs = append(jobs, pipeline.Job{Build: f.Clone, Plan: all})
	}
	return jobs, funcs
}

// flatten renders a recorded trace stream with its measurement fields
// (wall time, allocations) masked out: those differ between any two
// runs, serial or not. Everything else — run order, pass order,
// counters, snapshots — must be byte-identical across parallelism.
func flatten(rec *obs.Recorder) []string {
	var out []string
	for _, run := range rec.Runs {
		out = append(out, flattenRun(run)...)
	}
	return out
}

// flattenRun renders one recorded run as flatten does.
func flattenRun(run *obs.RecordedRun) []string {
	out := []string{fmt.Sprintf("run %s/%s before=%+v after=%+v ended=%v",
		run.Func, run.Config, run.Before, run.After, run.Ended)}
	for _, ev := range run.Events {
		out = append(out, fmt.Sprintf("  pass %s config=%s seq=%d before=%+v after=%+v counters=%v err=%q",
			ev.Pass, ev.Config, ev.Seq, ev.Before, ev.After, ev.Counters, ev.Err))
	}
	return out
}

// TestRunBatchDeterministic is the concurrency acceptance test: a batch
// of one-column and multi-column jobs at parallelism 8 must produce
// results and a merged trace stream identical to the serial run of the
// same jobs.
func TestRunBatchDeterministic(t *testing.T) {
	serialRec, parRec := &obs.Recorder{}, &obs.Recorder{}
	serialJobs, serialFuncs := batchJobs(t)
	serial := pipeline.RunBatch(context.Background(), serialJobs,
		pipeline.WithParallelism(1), pipeline.WithBatchTracer(serialRec))
	parJobs, parFuncs := batchJobs(t)
	par := pipeline.RunBatch(context.Background(), parJobs,
		pipeline.WithParallelism(8), pipeline.WithBatchTracer(parRec))

	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("job %d: error mismatch: %v vs %v", i, s.Err, p.Err)
		}
		if s.Err != nil {
			continue
		}
		if len(s.Results) != len(p.Results) {
			t.Fatalf("job %d: %d results serially, %d in parallel", i, len(s.Results), len(p.Results))
		}
		for c, sr := range s.Results {
			pr := p.Results[c]
			if sr.Moves != pr.Moves || sr.WeightedMoves != pr.WeightedMoves || sr.Instrs != pr.Instrs {
				t.Fatalf("job %d column %d: results diverge: moves %d/%d weighted %d/%d instrs %d/%d",
					i, c, sr.Moves, pr.Moves, sr.WeightedMoves, pr.WeightedMoves, sr.Instrs, pr.Instrs)
			}
		}
		if serialFuncs[i] != nil && serialFuncs[i].String() != parFuncs[i].String() {
			t.Fatalf("job %d: final IR diverges", i)
		}
	}

	sLines, pLines := flatten(serialRec), flatten(parRec)
	if len(sLines) != len(pLines) {
		t.Fatalf("trace stream lengths differ: %d vs %d", len(sLines), len(pLines))
	}
	for i := range sLines {
		if sLines[i] != pLines[i] {
			t.Fatalf("trace streams diverge at line %d:\nserial:   %s\nparallel: %s",
				i, sLines[i], pLines[i])
		}
	}
}

// TestRunBatchFromSSAMasters: a job that snapshots a master BuildSSA
// converted once (Job.SSA) ends exactly where pipeline.Run ends on a
// fresh copy of the pre-SSA function — same printed IR, moves,
// weighted moves and instruction count — under every preset and the
// four Table 5 variants, serially and on the worker pool, plain and
// checked. Batch metrics take a separate path through the batch
// driver, so each combination runs with and without them.
func TestRunBatchFromSSAMasters(t *testing.T) {
	type column struct {
		exp  string
		conf pipeline.Config
	}
	var cols []column
	for _, name := range pipeline.Presets() {
		conf, _ := pipeline.Preset(name)
		cols = append(cols, column{name, conf})
	}
	for _, v := range []struct {
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	} {
		conf, _ := pipeline.Preset(pipeline.ExpLphiABIC)
		conf.Coalesce = v.opt
		cols = append(cols, column{pipeline.ExpLphiABIC + "/" + v.name, conf})
	}

	type outcome struct {
		ir            string
		moves, instrs int
		weighted      int64
	}
	var masters []*ir.Func
	var infos []*ssa.Info
	var want []outcome // in job order: column-major, as stats lays out a row
	var fresh []*ir.Func
	for _, suite := range []*workload.Suite{workload.Examples(), workload.VALcc1()} {
		for _, f := range suite.Funcs {
			fresh = append(fresh, f.Clone())
			info, err := pipeline.BuildSSA(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", suite.Name, f.Name, err)
			}
			f.Freeze()
			masters, infos = append(masters, f), append(infos, info)
		}
	}
	for _, col := range cols {
		for _, pre := range fresh {
			f := pre.Clone()
			res, err := pipeline.Run(f, col.conf)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", col.exp, f.Name, err)
			}
			want = append(want, outcome{f.String(), res.Moves, res.Instrs, res.WeightedMoves})
		}
	}

	for _, parallel := range []int{1, 4} {
		for _, checked := range []bool{false, true} {
			for _, metered := range []bool{false, true} {
				name := fmt.Sprintf("parallel=%d/verify=%v/metrics=%v", parallel, checked, metered)
				t.Run(name, func(t *testing.T) {
					funcs := make([]*ir.Func, len(want))
					var jobs []pipeline.Job
					for _, col := range cols {
						conf := col.conf
						conf.Verify = checked
						p := plan(t, pipeline.Column{Config: conf, Experiment: col.exp})
						for mi, m := range masters {
							i, m := len(jobs), m
							jobs = append(jobs, pipeline.Job{
								Build: func() *ir.Func { funcs[i] = m.Snapshot(); return funcs[i] },
								Plan:  p,
								SSA:   infos[mi],
							})
						}
					}
					opts := []pipeline.BatchOption{pipeline.WithParallelism(parallel)}
					if metered {
						opts = append(opts, pipeline.WithBatchMetrics(metrics.New()))
					}
					for i, res := range pipeline.RunBatch(context.Background(), jobs, opts...) {
						if res.Err != nil {
							t.Fatalf("job %d (%s): %v", i, funcs[i].Name, res.Err)
						}
						r := res.Results[0]
						got := outcome{funcs[i].String(), r.Moves, r.Instrs, r.WeightedMoves}
						if got != want[i] {
							t.Fatalf("job %d (%s) diverges from pipeline.Run: moves %d/%d weighted %d/%d instrs %d/%d\ngot:\n%s\nwant:\n%s",
								i, funcs[i].Name, got.moves, want[i].moves,
								got.weighted, want[i].weighted, got.instrs, want[i].instrs, got.ir, want[i].ir)
						}
					}
				})
			}
		}
	}
}

// TestRunBatchBrokenSnapshotFailsChecked: a job's entry check trusts
// that Job.SSA's snapshot is the structurally sound master BuildSSA
// checked, and skips the structure check. A Build that hands out a
// broken snapshot instead (here, one whose entry block gains a
// predecessor that does not branch to it) must still fail checked mode,
// as a one-column run and as a Plan walk.
func TestRunBatchBrokenSnapshotFailsChecked(t *testing.T) {
	m := testprog.Loop()
	info, err := pipeline.BuildSSA(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Freeze()
	conf := pipeline.Configs[pipeline.ExpLphiABIC]
	conf.Verify = true
	other := pipeline.Configs[pipeline.ExpLABIC]
	other.Verify = true
	for _, p := range []*pipeline.Plan{
		plan(t, pipeline.Column{Config: conf, Experiment: pipeline.ExpLphiABIC}),
		plan(t, pipeline.Column{Config: conf, Experiment: pipeline.ExpLphiABIC},
			pipeline.Column{Config: other, Experiment: pipeline.ExpLABIC}),
	} {
		job := pipeline.Job{
			Build: func() *ir.Func {
				f := m.Snapshot()
				last := f.Blocks()[f.NumBlocks()-1]
				f.Entry().SetPreds([]ir.BlockID{last.ID})
				return f
			},
			Plan: p,
			SSA:  info,
		}
		res := pipeline.RunBatch(context.Background(), []pipeline.Job{job})
		var pe *pipeline.PassError
		if !errors.As(res[0].Err, &pe) {
			t.Fatalf("%d-column plan: err = %v, want a *PassError", len(res[0].Results), res[0].Err)
		}
		t.Logf("%d-column plan: %v", len(res[0].Results), res[0].Err)
	}
}

// TestRunBatchErrorIsolation: one corrupt job fails on its own; its
// neighbours complete, and the failure lands at the right index.
func TestRunBatchErrorIsolation(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify = true
	bad := conf
	bad.FaultHook = func(pass string, f *ir.Func) {
		if pass == "pinning-phi" {
			faultinject.Inject(f, faultinject.ClobberPhiArg)
		}
	}
	ok := plan(t, pipeline.Column{Config: conf, Experiment: "ok"})
	jobs := []pipeline.Job{
		{Build: testprog.SwapLoop, Plan: ok},
		{Build: testprog.SwapLoop, Plan: plan(t, pipeline.Column{Config: bad, Experiment: "bad"})},
		{Build: testprog.Diamond, Plan: ok},
	}
	results := pipeline.RunBatch(context.Background(), jobs, pipeline.WithParallelism(3))
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("corrupted job did not fail")
	}
	var pe *pipeline.PassError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("corrupted job failed with %T, want *PassError", results[1].Err)
	}
}

// TestRunBatchEmpty: a zero-job batch returns an empty, non-panicking
// result at any parallelism.
func TestRunBatchEmpty(t *testing.T) {
	if res := pipeline.RunBatch(context.Background(), nil, pipeline.WithParallelism(8)); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}
