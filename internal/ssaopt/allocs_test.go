package ssaopt_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/ssa"
	"outofssa/internal/ssaopt"
	"outofssa/internal/workload"
)

// wideBlocks builds a function of nb blocks in a chain, each computing
// ne distinct constants and ne distinct sums, and ne repeated sums of
// which local CSE replaces all.
func wideBlocks(nb, ne int) *ir.Func {
	bld := ir.NewBuilder(fmt.Sprintf("wide%dx%d", nb, ne))
	bld.Block("entry")
	a := bld.Val("a")
	bld.Input(a)
	var outs []ir.ValueID
	for k := 0; k < nb; k++ {
		if k > 0 {
			next := bld.Fn.NewBlock("")
			bld.Jump(next)
			bld.SetBlock(next)
		}
		for i := 0; i < ne; i++ {
			c, d, e := bld.Val(""), bld.Val(""), bld.Val("")
			bld.Const(c, int64(i))
			bld.Binary(ir.Add, d, a, c)
			bld.Binary(ir.Add, e, a, c)
			outs = append(outs, d, e)
		}
	}
	bld.Output(outs...)
	return bld.Fn
}

// TestLocalCSEAllocsBounded: each LocalCSE call allocates a bounded
// number of times, whatever its block and expression counts: the
// expression keys are values, and one map serves every block of the
// call, so only that map and the operand slab the rewritten
// instructions are carved from grow, by doubling. It measures the 228
// suite functions and 500 functions of the serve stream in SSA form,
// and chains of up to 100 blocks of up to 300 expressions each, with the
// garbage collector off during the call, whose cycles can add the
// runtime's own allocations to the count. Keyed by a string per
// expression, with a map per block, LocalCSE took up to 21,100
// allocations per call on these inputs.
func TestLocalCSEAllocsBounded(t *testing.T) {
	const bound = 24
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	funcs = append(funcs, workload.SynthFuncs(500, 1)...)
	for _, nb := range []int{1, 10, 100} {
		for _, ne := range []int{4, 30, 100} {
			funcs = append(funcs, wideBlocks(nb, ne))
		}
	}
	calls, worst := 0, uint64(0)
	for _, f := range funcs {
		info, err := ssa.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		ssaopt.LocalCSE(f, info)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		n := after.Mallocs - before.Mallocs
		if n > bound {
			t.Errorf("%s (%d instructions, %d blocks): LocalCSE made %d allocations, want at most %d",
				f.Name, f.NumInstrs(), f.NumBlocks(), n, bound)
		}
		calls, worst = calls+1, max(worst, n)
	}
	t.Logf("%d calls, at most %d allocations per call", calls, worst)
}

// TestLocalCSELeavesWideInstructionsAlone: an expression key holds
// three uses, the most Verify admits for any op LocalCSE merges; an
// instruction with more uses, which no boundary admits, is left as it
// is, however often it repeats.
func TestLocalCSELeavesWideInstructionsAlone(t *testing.T) {
	bld := ir.NewBuilder("wide")
	bld.Block("entry")
	a, b, c, d, x, y := bld.Val("a"), bld.Val("b"), bld.Val("c"), bld.Val("d"), bld.Val("x"), bld.Val("y")
	bld.Input(a, b, c, d)
	for _, v := range []ir.ValueID{x, y} {
		bld.Cur.Append(bld.Fn.NewInstr(ir.Select, ir.Ops(v), ir.Ops(a, b, c, d)))
	}
	bld.Output(x, y)
	if bld.Fn.Verify() == nil {
		t.Fatal("Verify admits a select with four uses")
	}
	before := bld.Fn.String()
	if n := ssaopt.LocalCSE(bld.Fn, ssa.EmptyInfo()); n != 0 {
		t.Fatalf("LocalCSE merged %d instructions with four uses:\n%s", n, bld.Fn)
	}
	if after := bld.Fn.String(); after != before {
		t.Fatalf("LocalCSE changed instructions with four uses\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
