package leung_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

// TestTranslateAllocsBounded: apart from the liveness and dominators it
// requests, each Translate call allocates a bounded number of times,
// whatever the number of its blocks, φs, edges and copies: the repair
// table is one dense slice, the φ, operand and copy lists are scratch
// reused across blocks, edges and instructions, and so is the
// parallel-copy lowering's. What remains grows with the function
// only slowly: the mark phase's and pin.NewResources's per-call
// tables, the repair variables' names, the new arena chunks of
// instructions and the doublings of the value, operand and code slabs
// the translation appends to. It measures every suite function as
// Lphi,ABI's out-of-pinned-ssa pass receives it, with critical edges
// split and both analyses requested first, so the call finds them
// memoized, and with the garbage collector off during the call, whose
// cycles can add the runtime's own allocations to the count. The
// per-block and per-edge lists it replaced took up to 554 allocations
// per call on these inputs (synth039: 547 instructions, 106 blocks).
func TestTranslateAllocsBounded(t *testing.T) {
	const bound = 64
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	conf := pipeline.Configs[pipeline.ExpLphiABI]
	calls, total, worst := 0, uint64(0), uint64(0)
	for _, src := range funcs {
		var g, prev *ir.Func
		conf.FaultHook = func(pass string, f *ir.Func) {
			if pass == "out-of-pinned-ssa" {
				g = prev
			}
			prev = f.Clone()
		}
		if _, err := pipeline.Run(src, conf); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if g == nil {
			t.Fatalf("%s: no out-of-pinned-ssa pass", src.Name)
		}
		cfg.SplitCriticalEdges(g)
		analysis.Dominators(g)
		analysis.Liveness(g)
		ni, nb := g.NumInstrs(), g.NumBlocks()
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		_, err := leung.Translate(g)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		n := after.Mallocs - before.Mallocs
		if n > bound {
			t.Errorf("%s (%d instructions, %d blocks): %d allocations beyond its analyses, want at most %d",
				g.Name, ni, nb, n, bound)
		}
		calls, total, worst = calls+1, total+n, max(worst, n)
	}
	t.Logf("%d calls, %.1f allocations per call on average, at most %d", calls, float64(total)/float64(calls), worst)
}
