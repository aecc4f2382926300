package ssaopt_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/ssa"
	"outofssa/internal/ssaopt"
	"outofssa/internal/testprog"
)

func TestCopyPropagation(t *testing.T) {
	bld := ir.NewBuilder("cp")
	bld.Block("entry")
	a, b, c, d := bld.Val("a"), bld.Val("b"), bld.Val("c"), bld.Val("d")
	bld.Input(a)
	bld.Copy(b, a)
	bld.Copy(c, b)
	bld.Unary(ir.Neg, d, c)
	bld.Output(d)

	info := ssa.EmptyInfo()
	st := ssaopt.Optimize(bld.Fn, info)
	if st.CopiesPropagated == 0 || st.DeadRemoved == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if bld.Fn.CountMoves() != 0 {
		t.Fatalf("copies remain:\n%s", bld.Fn)
	}
	res, err := ir.Exec(bld.Fn, []int64{5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != -5 {
		t.Fatalf("semantics broken: %v", res.Outputs)
	}
}

func TestCopyPropagationSkipsPinnedAndProtected(t *testing.T) {
	bld := ir.NewBuilder("cp2")
	f := bld.Fn
	bld.Block("entry")
	a, b := bld.Val("a"), bld.Val("b")
	in := bld.Input(a)
	in.SetDefPin(0, f.Target.R[0])
	cp := bld.Copy(b, a)
	cp.SetDefPin(0, f.Target.R[1]) // pinned copy: must stay
	out := bld.Output(b)
	_ = out

	n := ssaopt.CopyPropagate(f, ssa.EmptyInfo())
	if n != 0 {
		t.Fatal("propagated through a pinned copy")
	}
}

func TestConstFold(t *testing.T) {
	bld := ir.NewBuilder("cf")
	bld.Block("entry")
	a, b, c := bld.Val("a"), bld.Val("b"), bld.Val("c")
	bld.Const(a, 6)
	bld.Const(b, 7)
	bld.Binary(ir.Mul, c, a, b)
	bld.Output(c)

	n := ssaopt.ConstFold(bld.Fn)
	if n != 1 {
		t.Fatalf("folded %d, want 1", n)
	}
	res, err := ir.Exec(bld.Fn, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 42 {
		t.Fatalf("fold wrong: %v", res.Outputs)
	}
}

func TestLocalCSE(t *testing.T) {
	bld := ir.NewBuilder("cse")
	bld.Block("entry")
	a, b, x, y, s := bld.Val("a"), bld.Val("b"), bld.Val("x"), bld.Val("y"), bld.Val("s")
	bld.Input(a, b)
	bld.Binary(ir.Add, x, a, b)
	bld.Binary(ir.Add, y, a, b) // same expression
	bld.Binary(ir.Mul, s, x, y)
	bld.Output(s)

	n := ssaopt.LocalCSE(bld.Fn, ssa.EmptyInfo())
	if n != 1 {
		t.Fatalf("CSE hits = %d, want 1", n)
	}
	res, err := ir.Exec(bld.Fn, []int64{3, 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 49 {
		t.Fatalf("CSE broke semantics: %v", res.Outputs)
	}
}

func TestDCE(t *testing.T) {
	bld := ir.NewBuilder("dce")
	bld.Block("entry")
	a, dead1, dead2, r := bld.Val("a"), bld.Val("d1"), bld.Val("d2"), bld.Val("r")
	bld.Input(a)
	bld.Const(dead1, 1)
	bld.Binary(ir.Add, dead2, dead1, a) // transitively dead
	bld.Unary(ir.Neg, r, a)
	bld.Output(r)

	n := ssaopt.EliminateDeadCode(bld.Fn)
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
}

func TestDCEKeepsStoresAndCalls(t *testing.T) {
	bld := ir.NewBuilder("dcekeep")
	bld.Block("entry")
	a, d := bld.Val("a"), bld.Val("d")
	bld.Input(a)
	bld.Store(a, a)
	bld.Call("f", []ir.ValueID{d}, a) // result unused but call has effects
	bld.Output(a)

	n := ssaopt.EliminateDeadCode(bld.Fn)
	if n != 0 {
		t.Fatal("removed an effectful instruction")
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		ref := testprog.Rand(seed, testprog.DefaultRandOptions())
		args := []int64{seed, 21, seed % 4}
		want, err := ir.Exec(ref, args, 500000)
		if err != nil {
			t.Fatal(err)
		}
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		info := ssa.MustBuild(f)
		ssaopt.Optimize(f, info)
		if err := ssa.Verify(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := ir.Exec(f, args, 1000000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !want.Equal(got) {
			t.Fatalf("seed %d: optimization changed behaviour", seed)
		}
	}
}

func TestOptimizeProtectsSPWeb(t *testing.T) {
	f := testprog.WithCallsAndStack()
	info := ssa.MustBuild(f)
	ssaopt.Optimize(f, info)
	// The SP-derived values must still be present (not propagated away).
	found := false
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, o := range append(append([]ir.Operand{}, in.Defs()...), in.Uses()...) {
				if info.OrigPhys(o.Val) == f.Target.SP {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("SP web vanished under optimization")
	}
}
