package ssa_test

import (
	"runtime"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/ssa"
)

// TestBuildAllocsBounded: apart from the liveness and dominators it
// requests, Build allocates a bounded number of times per call, whatever
// the size of the function: it sizes its tables once per call, and only
// the function's own slabs grow, by doubling. The test requests those
// analyses first, with every variable walk of the liveness, so that
// Build finds them memoized. It would skip a function for which Build
// adds implicit entry definitions, since that changes the function and
// so its liveness, but none of the reference inputs needs one: all of
// them are measured. On these inputs (up to 586 instructions), the
// map-based construction made 64 to 2,349 allocations per call.
func TestBuildAllocsBounded(t *testing.T) {
	const bound = 32
	funcs := referenceInputs(t)
	measured, worst := 0, uint64(0)
	for _, src := range funcs {
		f := src.Clone()
		cfg.RemoveUnreachable(f)
		live := analysis.Liveness(f)
		if !live.LiveInSet(f.Entry()).Empty() {
			continue
		}
		analysis.Dominators(f)
		for _, b := range f.Blocks() {
			live.LiveInSet(b)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ssa.Build(f)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		n := after.Mallocs - before.Mallocs
		if n > bound {
			t.Fatalf("%s (%d instructions): Build made %d allocations beyond its analyses, want at most %d",
				f.Name, f.NumInstrs(), n, bound)
		}
		worst = max(worst, n)
		measured++
	}
	t.Logf("%d functions measured, at most %d allocations per call", measured, worst)
	if measured != len(funcs) {
		t.Fatalf("only %d of %d functions measured", measured, len(funcs))
	}
}
