package ir_test

import (
	"math"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// checkPrinter fails unless Func.String and every Instr.String of f
// equal the fmt-based reference printer's.
func checkPrinter(t *testing.T, tag string, f *ir.Func) {
	t.Helper()
	if got, want := f.String(), ir.ReferenceString(f); got != want {
		t.Fatalf("%s: printed\n%s\nreference\n%s", tag, got, want)
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if got, want := in.String(), ir.ReferenceInstrString(in); got != want {
				t.Fatalf("%s: instruction printed %q, reference %q", tag, got, want)
			}
		}
	}
}

// TestPrinterMatchesReference renders the 228 suite functions and 400
// random programs (both loop shapes) as built, after every pass of
// LABI+C (pinned operands, φs, parallel copies, loop depths) and at
// the end, and compares each rendering with the reference printer's.
// A hand-built function adds what those never print: negative and
// extreme immediates, an unnamed block, a value without a name of its
// own and a pin on every operand kind.
func TestPrinterMatchesReference(t *testing.T) {
	var funcs []*ir.Func
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		funcs = append(funcs, build().Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < 200; seed++ {
		opt := testprog.DefaultRandOptions()
		funcs = append(funcs, testprog.Rand(seed, opt))
		opt.BottomTestedLoops = true
		funcs = append(funcs, testprog.Rand(seed, opt))
	}
	conf, err := pipeline.Preset(pipeline.ExpLABIC)
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	conf.FaultHook = func(pass string, f *ir.Func) {
		checkPrinter(t, f.Name+" after "+pass, f)
		passes++
	}
	for _, src := range funcs {
		checkPrinter(t, src.Name, src)
		f := src.Clone()
		if _, err := pipeline.Run(f, conf); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		checkPrinter(t, src.Name+" after LABI+C", f)
	}
	if passes < 2*len(funcs) {
		t.Fatalf("only %d pass outputs printed for %d functions", passes, len(funcs))
	}

	bld := ir.NewBuilder("edges")
	entry := bld.Block("entry")
	loop := bld.Fn.NewBlock("")
	exit := bld.Fn.NewBlock("exit")
	loop.Name = ""
	a, b, c, d := bld.Val("a"), bld.Val(""), bld.Val("c"), bld.Val("d")
	r0, sp := bld.Fn.Target.R[0], bld.Fn.Target.SP
	bld.SetBlock(entry)
	bld.Input(a, b).SetDefPin(0, r0)
	bld.Const(c, -7)
	bld.Make(d, math.MinInt64)
	bld.More(d, d, math.MaxInt64).SetUsePin(0, sp)
	bld.Jump(loop)
	bld.SetBlock(loop)
	loop.LoopDepth = 12
	bld.AutoAdd(a, a, -1)
	bld.Call("callee", []ir.ValueID{c}, a, b).SetUsePin(1, r0)
	bld.Br(c, loop, exit)
	bld.SetBlock(exit)
	bld.Cur.Append(bld.Fn.NewInstr(ir.ParCopy, ir.Ops(a, b), ir.Ops(b, a)))
	bld.Output(a, d)
	checkPrinter(t, "edges", bld.Fn)
}
