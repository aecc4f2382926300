package pipeline_test

import (
	"fmt"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
)

// pinningMismatch holds the row table to the ResourceGraph oracle on f,
// as the pinning-phi pass received it, under opt, twice: directly, on
// f with its critical edges (tableMismatch, which the depth constraint
// does not change, so it runs without it), and through
// coalesce.CheckDecisions, which runs Program_pinning on a copy of f.
// It describes the first disagreement, or returns "".
func pinningMismatch(f *ir.Func, opt coalesce.Options) string {
	if !opt.DepthConstraint {
		if m := tableMismatch(f.Clone(), opt.Mode); m != "" {
			return m
		}
	}
	m, err := coalesce.CheckDecisions(f.Clone(), opt)
	if err != nil {
		return fmt.Sprintf("%s under %+v: %v", f.Name, opt, err)
	}
	if m != "" {
		return fmt.Sprintf("under %+v: %s", opt, m)
	}
	return ""
}

// tableMismatch builds the row table and the ResourceGraph oracle over
// the classes of f's φ results and arguments, with f's critical edges
// unsplit: Program_pinning splits them first, and only across a
// critical edge can a φ kill its own result (the lost-copy self-kill).
// Every numbered value's IsKilled must agree; then each φ slot in block
// order asks Interfere of its argument's and result's classes and
// merges them, and Merge must succeed exactly when the oracle sees no
// interference; after the merges IsKilled must agree again.
func tableMismatch(f *ir.Func, mode interference.Mode) string {
	res, err := pin.NewResources(f)
	if err != nil || pin.Validate(f, res) != nil {
		return "" // the pipeline rejects f before pinning
	}
	var seeds []ir.ValueID
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			seeds = append(seeds, phi.Def(0))
			for _, u := range phi.Uses() {
				seeds = append(seeds, u.Val)
			}
		}
	}
	an := interference.New(f, analysis.Liveness(f), analysis.Dominators(f), mode)
	tab := interference.NewTable(an, res, seeds)
	rg := interference.NewResourceGraph(an, res)
	killed := func(stage string) string {
		for _, v := range seeds {
			for _, m := range res.Members(v) {
				if got, want := tab.IsKilled(m), rg.IsKilled(m); got != want {
					return fmt.Sprintf("%s (%v, %s): IsKilled(%s): table %v, oracle %v\n%s", f.Name, mode, stage, f.VStr(m), got, want, f)
				}
			}
		}
		return ""
	}
	if m := killed("before the merges"); m != "" {
		return m
	}
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				a, x := res.Find(u.Val), res.Find(phi.Def(0))
				if a == x {
					continue
				}
				want := rg.Interfere(a, x)
				if got := tab.Interfere(a, x); got != want {
					return fmt.Sprintf("%s (%v): Interfere(%s, %s): table %v, oracle %v\n%s", f.Name, mode, f.VStr(a), f.VStr(x), got, want, f)
				}
				if merged := tab.Merge(a, x); merged == want {
					return fmt.Sprintf("%s (%v): Merge(%s, %s) = %v, oracle's Interfere %v\n%s", f.Name, mode, f.VStr(a), f.VStr(x), merged, want, f)
				}
			}
		}
	}
	return killed("after the merges")
}

// TestPinningDecisionsMatchOracle runs every preset that coalesces φs
// over the 228 suite functions and 300 random programs in both loop
// shapes and, at each pinning-phi pass, holds every decision of the row
// table to the ResourceGraph oracle's on the pass's input
// (pinningMismatch), in all three interference modes, with and without
// the depth constraint.
func TestPinningDecisionsMatchOracle(t *testing.T) {
	var opts []coalesce.Options
	for _, mode := range []interference.Mode{interference.Exact, interference.Optimistic, interference.Pessimistic} {
		for _, depth := range []bool{false, true} {
			opts = append(opts, coalesce.Options{Mode: mode, DepthConstraint: depth})
		}
	}
	checks := 0
	for _, name := range expNames() {
		conf := pipeline.Configs[name]
		if !conf.PhiCoalesce {
			continue
		}
		for _, src := range oracleInputs(t) {
			var mismatch string
			conf.FaultHook = atPassInputs(func(pass string, f *ir.Func) {
				if pass != "pinning-phi" {
					return
				}
				for _, opt := range opts {
					if m := pinningMismatch(f, opt); mismatch == "" {
						mismatch = m
					}
					checks++
				}
			})
			_, err := pipeline.Run(src, conf)
			if mismatch != "" {
				t.Fatalf("under %s: %s", name, mismatch)
			}
			if err != nil {
				t.Fatalf("%s under %s: %v", src.Name, name, err)
			}
		}
	}
	if checks == 0 {
		t.Fatal("no pinning-phi pass was checked")
	}
	t.Logf("%d Program_pinning runs agree with the oracle", checks)
}
