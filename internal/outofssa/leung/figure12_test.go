package leung_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/ssa"
)

// TestPaperFigure12Limitation documents limitation [LIM2]: a repair
// variable introduced during the repairing phase is not coalesced with
// further uses pinned to the conflicting resource. The optimal code needs
// one move (R0 = x before x is incremented); Leung–George's repair
// produces two (x' = x repair, then R0 = x' at the call).
//
//	x0 = ...
//	loop: x = φ(x0, x1) pinned to x's own web
//	      x1 = x + 1
//	      ... = f(x ^ R0)        — use of x pinned to R0
func TestPaperFigure12Limitation(t *testing.T) {
	bld := ir.NewBuilder("fig12")
	f := bld.Fn
	r0 := f.Target.R[0]

	entry := bld.Block("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	x0, x, x1 := bld.Val("x0"), bld.Val("x"), bld.Val("x1")
	d, c, n := bld.Val("d"), bld.Val("c"), bld.Val("n")
	one := bld.Val("one")

	bld.SetBlock(entry)
	bld.Input(n)
	bld.Const(one, 1)
	bld.Const(x0, 0)
	bld.Jump(loop)

	bld.SetBlock(loop)
	phi := bld.Phi(x, x0, x1)
	// Coalesce the φ web by hand (x, x0, x1 pinned to x) — the situation
	// after a pinningφ pass.
	phi.SetDefPin(0, x)
	bld.Binary(ir.Add, x1, x, one)
	call := bld.Call("f", []ir.ValueID{d}, x)
	call.SetUsePin(0, r0)
	call.SetDefPin(0, r0)
	bld.Binary(ir.CmpLT, c, d, n)
	bld.Br(c, loop, exit)

	bld.SetBlock(exit)
	bld.Output(d)

	// Pin x0 and x1 defs into x's web.
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumDefs(); i++ {
				if in.Def(i) == x0 || in.Def(i) == x1 {
					in.SetDefPin(i, x)
				}
			}
		}
	}
	if err := ssa.Verify(f); err != nil {
		t.Fatal(err)
	}

	st, err := leung.Translate(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// x is killed in its own web by x1 = x+1 (x still live at the call
	// after the increment on the paper's schedule? here x is used by the
	// call AFTER x1's def, so x is killed and repaired).
	if st.Repairs == 0 {
		t.Fatalf("expected the repair that exhibits [LIM2]; stats: %+v\n%s", st, f)
	}
	// The limitation: two moves where the optimal solution needs one.
	if got := f.CountMoves(); got < 2 {
		t.Fatalf("expected >= 2 moves (the [LIM2] cost), got %d:\n%s", got, f)
	}
}
