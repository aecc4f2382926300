package pipeline_test

import (
	"fmt"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// atPassInputs returns a fault hook that hands check each pass's name
// with a copy of the function as that pass received it: the hook keeps
// a clone of each pass's output and, when the next pass ends, passes
// on the clone its predecessor left. The first pass is not checked.
func atPassInputs(check func(pass string, f *ir.Func)) func(string, *ir.Func) {
	var prev *ir.Func
	return func(pass string, f *ir.Func) {
		if prev != nil {
			check(pass, prev)
		}
		prev = f.Clone()
	}
}

// killMarksMismatch compares the marks of
// interference.Analysis.KilledAll with ResourceGraph.IsKilled of every
// value, with the classes of f's definition pins, twice: on f as Leung's
// mark phase sees it (critical edges split), and first on f as the pass
// received it, whose critical edges are where a φ can kill its own
// result (the lost-copy self-kill). It describes the first value they
// disagree on, or returns "" when they agree; killed is the number of
// values marked in both runs.
func killMarksMismatch(f *ir.Func) (mismatch string, killed int) {
	for _, split := range []bool{false, true} {
		if split {
			cfg.SplitCriticalEdges(f)
		}
		res, err := pin.NewResources(f)
		if err != nil || pin.Validate(f, res) != nil {
			return "", 0 // the translation rejects f before marking
		}
		live, dom := analysis.Liveness(f), analysis.Dominators(f)
		walk := interference.New(f, live, dom, interference.Exact).KilledAll(res)
		rg := interference.NewResourceGraph(interference.New(f, live, dom, interference.Exact), res)
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if want := rg.IsKilled(v); walk.Has(id) != want {
				return fmt.Sprintf("%s (critical edges split: %v): walk marks %s %v, ResourceGraph %v\n%s",
					f.Name, split, f.VStr(v), walk.Has(id), want, f), 0
			}
		}
		killed += walk.Len()
	}
	return "", killed
}

// oracleInputs returns the 228 suite functions and 300 random programs,
// about half of them with bottom-tested loops.
func oracleInputs(t *testing.T) []*ir.Func {
	t.Helper()
	var funcs []*ir.Func
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		funcs = append(funcs, build().Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, testprog.Rand(seed, fuzzOptions(seed)))
	}
	return funcs
}

// TestKilledAllMatchesResourceGraph runs every preset over the 228
// suite functions and 300 random programs, about half of them with
// bottom-tested loops, and, at each out-of-pinned-SSA pass, holds the
// walk's killed mark of every value to the ResourceGraph's.
func TestKilledAllMatchesResourceGraph(t *testing.T) {
	funcs := oracleInputs(t)
	checks, killed := 0, 0
	for _, name := range expNames() {
		for _, src := range funcs {
			var mismatch string
			conf := pipeline.Configs[name]
			conf.FaultHook = atPassInputs(func(pass string, f *ir.Func) {
				if pass != "out-of-pinned-ssa" {
					return
				}
				m, k := killMarksMismatch(f)
				if mismatch == "" {
					mismatch = m
				}
				checks++
				killed += k
			})
			if _, err := pipeline.Run(src.Clone(), conf); err != nil {
				t.Fatalf("%s under %s: %v", src.Name, name, err)
			}
			if mismatch != "" {
				t.Fatalf("under %s: %s", name, mismatch)
			}
		}
	}
	if checks == 0 || killed == 0 {
		t.Fatalf("%d mark phases checked with %d killed values: the check saw no kills", checks, killed)
	}
	t.Logf("%d mark phases agree, %d killed values", checks, killed)
}
