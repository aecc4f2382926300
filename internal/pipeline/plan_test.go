package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/workload"
)

// tableColumns returns the 14 columns of Tables 2–5 in the order the
// tables print them, and the 3 of Table 2 among them.
func tableColumns(t *testing.T) (all, table2 []pipeline.Column) {
	t.Helper()
	for _, exp := range []string{
		pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC,
		pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC, pipeline.ExpLABIC, pipeline.ExpC3,
		pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI,
	} {
		conf, err := pipeline.Preset(exp)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pipeline.Column{Config: conf, Experiment: exp})
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
		all = append(all, pipeline.Column{Config: conf, Experiment: pipeline.ExpLphiABIC + "/" + v.name})
	}
	return all, all[:3]
}

// converted is one suite function in SSA form, frozen, with its Info.
type converted struct {
	master *ir.Func
	info   *ssa.Info
}

// paperSuites converts every function of the five paper suites, as the
// tables do.
func paperSuites(t *testing.T) []converted {
	t.Helper()
	var out []converted
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		s := build()
		for _, f := range s.Funcs {
			info, err := pipeline.BuildSSA(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, f.Name, err)
			}
			f.Freeze()
			out = append(out, converted{f, info})
		}
	}
	return out
}

// TestPlanMatchesFlatRuns is the shared-prefix runner's oracle: every
// column of Tables 2–5 runs on all 228 suite functions once flat
// (pipeline.Run on a snapshot of the converted master, one run per
// cell) and once as one Plan per function. Per cell the two must agree
// on moves, weighted moves and printed IR, on the full Result with
// every pass Stats struct, and on the column's trace with walls and
// allocations masked. Table 2 is compared in checked mode too. It also
// counts the pass runs of one AllTables.
func TestPlanMatchesFlatRuns(t *testing.T) {
	all, table2 := tableColumns(t)
	funcs := paperSuites(t)
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	var checked []pipeline.Column
	for _, c := range table2 {
		c.Config.Verify = true
		checked = append(checked, c)
	}
	for _, tc := range []struct {
		name                         string
		cols                         []pipeline.Column
		wantFlatRuns, wantSharedRuns int // pass runs over the suites
	}{
		{name: "tables 2-5", cols: all, wantFlatRuns: 18696, wantSharedRuns: 8892},
		{name: "table 2 checked", cols: checked, wantFlatRuns: 228 * 18, wantSharedRuns: 228 * 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := plan(t, tc.cols...)
			flatRuns, sharedRuns := 0, 0
			for _, fn := range funcs {
				rec := &obs.Recorder{}
				printed := make([]string, len(tc.cols))
				shared, err := pipeline.RunPlan(fn.master.Snapshot(), p,
					func(col int, f *ir.Func) { printed[col] = f.String() },
					pipeline.WithSSAInfo(fn.info), pipeline.WithTracer(rec))
				if err != nil {
					t.Fatalf("%s: shared: %v", fn.master.Name, err)
				}
				sharedRuns += p.PassRuns()
				if len(rec.Runs) != len(tc.cols) {
					t.Fatalf("%s: shared trace has %d runs for %d columns", fn.master.Name, len(rec.Runs), len(tc.cols))
				}
				for ci, col := range tc.cols {
					frec := &obs.Recorder{}
					f := fn.master.Snapshot()
					want, err := pipeline.Run(f, col.Config, pipeline.WithSSAInfo(fn.info),
						pipeline.WithExperiment(col.Experiment), pipeline.WithTracer(frec))
					if err != nil {
						t.Fatalf("%s/%s: flat: %v", col.Experiment, f.Name, err)
					}
					flatRuns += len(frec.Runs[0].Events)
					got := shared[ci]
					if got.Moves != want.Moves || got.WeightedMoves != want.WeightedMoves {
						t.Fatalf("%s/%s: moves %d weighted %d shared, %d and %d flat",
							col.Experiment, f.Name, got.Moves, got.WeightedMoves, want.Moves, want.WeightedMoves)
					}
					if wantIR := f.String(); printed[ci] != wantIR {
						t.Fatalf("%s/%s: shared IR differs from flat:\n%s\nwant:\n%s", col.Experiment, f.Name, printed[ci], wantIR)
					}
					if d := resultDiff(got, want); d != "" {
						t.Fatalf("%s/%s: shared Result differs from flat in %s", col.Experiment, f.Name, d)
					}
					if g, w := flattenRun(rec.Runs[ci]), flattenRun(frec.Runs[0]); !slices.Equal(g, w) {
						t.Fatalf("%s/%s: shared trace differs from flat:\n%q\nwant:\n%q", col.Experiment, f.Name, g, w)
					}
				}
			}
			t.Logf("pass runs over the suites: %d flat, %d shared", flatRuns, sharedRuns)
			if flatRuns != tc.wantFlatRuns || sharedRuns != tc.wantSharedRuns {
				t.Errorf("pass runs: %d flat, %d shared; want %d and %d",
					flatRuns, sharedRuns, tc.wantFlatRuns, tc.wantSharedRuns)
			}
		})
	}
}

// resultDiff names the first field of Result, pass Stats structs
// compared by value, in which got and want differ, with both values;
// "" when they are deeply equal.
func resultDiff(got, want *pipeline.Result) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return fmt.Sprintf("%s: %+v, flat %+v", g.Type().Field(i).Name,
				reflect.Indirect(g.Field(i)), reflect.Indirect(w.Field(i)))
		}
	}
	return ""
}

// TestPlanFailureStopsItsColumns: a failure at a shared pass fails every
// column through it, and only those. The context is cancelled as the
// first column ends, so the walk's every later pass fails at its
// cancellation check: the first column keeps its result and its whole
// run in the trace, the others report the cancellation and a run with
// no end, as a flat run cancelled at the same pass would.
func TestPlanFailureStopsItsColumns(t *testing.T) {
	all, _ := tableColumns(t)
	fn := paperSuites(t)[0]
	p := plan(t, all...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &obs.Recorder{}
	res, err := pipeline.RunPlan(fn.master.Snapshot(), p,
		func(col int, _ *ir.Func) {
			if col == 0 {
				cancel()
			}
		},
		pipeline.WithSSAInfo(fn.info), pipeline.WithTracer(rec), pipeline.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	var pe *pipeline.PassError
	if !errors.As(err, &pe) || pe.Config != all[1].Experiment {
		t.Fatalf("err = %#v, want a *PassError labelled %q, the first failing column", err, all[1].Experiment)
	}
	if res[0] == nil || !rec.Runs[0].Ended {
		t.Fatal("the column that ended before the cancellation lost its result or its run end")
	}
	for ci := 1; ci < len(all); ci++ {
		if res[ci] != nil || rec.Runs[ci].Ended {
			t.Errorf("column %s ended after the cancellation", all[ci].Experiment)
		}
	}
}

// TestNewPlanRejectsPerRunOptions: Fallback and FaultHook act on one
// run, so a plan of several columns refuses them, and its columns must
// agree on Verify. One column takes them all.
func TestNewPlanRejectsPerRunOptions(t *testing.T) {
	base, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	fallback, hook, checked := base, base, base
	fallback.Fallback = true
	hook.FaultHook = func(string, *ir.Func) {}
	checked.Verify = true
	for _, bad := range []pipeline.Config{fallback, hook, checked} {
		if _, err := pipeline.NewPlan(pipeline.Column{Config: base, Experiment: "a"},
			pipeline.Column{Config: bad, Experiment: "b"}); err == nil {
			t.Errorf("NewPlan accepted %+v beside %+v", bad, base)
		}
		if _, err := pipeline.NewPlan(pipeline.Column{Config: bad, Experiment: "b"}); err != nil {
			t.Errorf("one column: %v", err)
		}
	}
	if _, err := pipeline.NewPlan(); err == nil {
		t.Error("NewPlan accepted no columns")
	}
}
