package interference_test

import (
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

func analyze(f *ir.Func, mode interference.Mode) *interference.Analysis {
	return interference.New(f, liveness.Compute(f), cfg.Dominators(f), mode)
}

func valByName(f *ir.Func, name string) ir.ValueID {
	for id := 0; id < f.NumValues(); id++ {
		if f.ValueName(ir.ValueID(id)) == name {
			return ir.ValueID(id)
		}
	}
	return ir.NoValue
}

// Class 1 (Fig. 6 left): x = ...; y = ...; ... = x — y kills x because
// x's def dominates y's def and x is live past y's definition.
func TestClass1Kill(t *testing.T) {
	bld := ir.NewBuilder("class1")
	bld.Block("entry")
	x, y, z := bld.Val("x"), bld.Val("y"), bld.Val("z")
	bld.Const(x, 1)
	bld.Const(y, 2)
	bld.Binary(ir.Add, z, x, y) // x live past y's def
	bld.Output(z)

	an := analyze(bld.Fn, interference.Exact)
	if !an.Kills(y, x) {
		t.Fatal("y must kill x (Class 1)")
	}
	if an.Kills(x, y) {
		t.Fatal("x must not kill y (x defined first)")
	}
}

func TestClass1NoKillWhenDeadAtDef(t *testing.T) {
	bld := ir.NewBuilder("dead")
	bld.Block("entry")
	x, y, z := bld.Val("x"), bld.Val("y"), bld.Val("z")
	bld.Const(x, 1)
	bld.Unary(ir.Neg, y, x) // x dies here
	bld.Unary(ir.Neg, z, y)
	bld.Output(z)

	an := analyze(bld.Fn, interference.Exact)
	if an.Kills(y, x) {
		t.Fatal("x dies at y's def: no kill, the resource can be shared")
	}
}

// Class 2 (Fig. 6 middle): x defined and live out of a predecessor that
// feeds a φ with a different argument — the φ's copy kills x there.
func TestClass2PhiKill(t *testing.T) {
	bld := ir.NewBuilder("class2")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")
	c, x, z1, z2, y, w := bld.Val("c"), bld.Val("x"), bld.Val("z1"), bld.Val("z2"), bld.Val("y"), bld.Val("w")
	bld.SetBlock(entry)
	bld.Input(c, x)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Const(z1, 1)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Const(z2, 2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(y, z1, z2)
	bld.Binary(ir.Add, w, y, x) // x live through the φ point
	bld.Output(w)

	an := analyze(bld.Fn, interference.Exact)
	if !an.Kills(y, x) {
		t.Fatal("φ def y must kill x (Class 2: x live out of preds, args differ)")
	}
	if an.Kills(y, z1) {
		t.Fatal("y must not kill its own argument z1 at z1's edge")
	}
}

// The lost-copy self kill: a φ result live out of a predecessor whose
// argument is a different value kills itself. This only arises on
// unsplit critical edges (splitting them is the other classic fix for
// the lost-copy problem), so the scenario is built by hand:
//
//	entry: x1 = 1; jump head
//	head:  x2 = φ(x1, x3); x3 = x2+1; br c -> head, exit
//	exit:  output x2            — x2 live out of head, arg x3 ≠ x2
func TestLostCopySelfKill(t *testing.T) {
	bld := ir.NewBuilder("selfkill")
	entry := bld.Block("entry")
	head := bld.Fn.NewBlock("head")
	exit := bld.Fn.NewBlock("exit")
	n, x1, x2, x3, c := bld.Val("n"), bld.Val("x1"), bld.Val("x2"), bld.Val("x3"), bld.Val("c")
	one := bld.Val("one")
	bld.SetBlock(entry)
	bld.Input(n)
	bld.Const(one, 1)
	bld.Const(x1, 1)
	bld.Jump(head)
	bld.SetBlock(head)
	bld.Phi(x2, x1, x3)
	bld.Binary(ir.Add, x3, x2, one)
	bld.Binary(ir.CmpLT, c, x3, n)
	bld.Br(c, head, exit)
	bld.SetBlock(exit)
	bld.Output(x2)
	if err := ssa.Verify(bld.Fn); err != nil {
		t.Fatal(err)
	}

	an := analyze(bld.Fn, interference.Exact)
	if !an.Kills(x2, x2) {
		t.Fatal("lost-copy φ result must self-kill (paper: 'a variable is killed by itself')")
	}
	// After splitting the critical back edge the hazard disappears.
	cfg.SplitCriticalEdges(bld.Fn)
	an = analyze(bld.Fn, interference.Exact)
	if an.Kills(x2, x2) {
		t.Fatal("edge splitting must remove the lost-copy self-kill")
	}
}

// Class 3 (Fig. 6 right): two φs in different blocks with different
// arguments flowing from a common predecessor strongly interfere.
func TestClass3StrongInterference(t *testing.T) {
	bld := ir.NewBuilder("class3")
	entry := bld.Block("entry")
	mid := bld.Fn.NewBlock("mid")
	j1 := bld.Fn.NewBlock("j1")
	j2 := bld.Fn.NewBlock("j2")
	c, x1, y1, x, y := bld.Val("c"), bld.Val("x1"), bld.Val("y1"), bld.Val("x"), bld.Val("y")

	// entry -> j1 (via mid) and entry -> j1 directly; j1 -> j2 twice is
	// not expressible; instead: entry branches to mid/j1; mid jumps j1;
	// j1 branches to j2/exit-ish. Build the paper's shape: a common
	// predecessor feeding two φs in different blocks with different args.
	// Simplest faithful shape: block B is a predecessor of both J1 and J2.
	//
	//   entry: br c -> B, J1
	//   B:     jump J1?  — we need B pred of both J1 and J2.
	//
	// Use: B br -> J1, J2 ; entry jump B' paths give other preds.
	_ = mid
	bld.SetBlock(entry)
	bld.Input(c, x1, y1)
	bld.Br(c, j1, j2) // entry is a common predecessor of j1 and j2
	bld.SetBlock(j1)
	bld.Phi(x, x1)
	bld.Jump(j2)
	bld.SetBlock(j2)
	bld.Phi(y, y1, x) // from entry: y1 (≠ x1 at the shared pred entry)
	bld.Output(y)

	an := analyze(bld.Fn, interference.Exact)
	if !an.StronglyInterfere(x, y) {
		t.Fatal("φs with different args from a shared predecessor must strongly interfere (Class 3)")
	}
}

func TestClass3SameArgsNoStrongInterference(t *testing.T) {
	bld := ir.NewBuilder("class3ok")
	entry := bld.Block("entry")
	j1 := bld.Fn.NewBlock("j1")
	j2 := bld.Fn.NewBlock("j2")
	c, x1, x, y := bld.Val("c"), bld.Val("x1"), bld.Val("x"), bld.Val("y")
	bld.SetBlock(entry)
	bld.Input(c, x1)
	bld.Br(c, j1, j2)
	bld.SetBlock(j1)
	bld.Phi(x, x1)
	bld.Jump(j2)
	bld.SetBlock(j2)
	bld.Phi(y, x1, x) // same value x1 from the shared pred entry
	bld.Output(y)

	an := analyze(bld.Fn, interference.Exact)
	if an.StronglyInterfere(x, y) {
		t.Fatal("identical argument from the shared predecessor: no strong interference")
	}
}

// Class 4: two φs in the same block always strongly interfere.
func TestClass4SameBlockPhis(t *testing.T) {
	bld := ir.NewBuilder("class4")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")
	c, a1, a2, x, y, s := bld.Val("c"), bld.Val("a1"), bld.Val("a2"), bld.Val("x"), bld.Val("y"), bld.Val("s")
	bld.SetBlock(entry)
	bld.Input(c, a1, a2)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x, a1, a2)
	bld.Phi(y, a1, a2) // same arguments — still strong (Class 4)
	bld.Binary(ir.Add, s, x, y)
	bld.Output(s)

	an := analyze(bld.Fn, interference.Exact)
	if !an.StronglyInterfere(x, y) {
		t.Fatal("same-block φs must strongly interfere (Class 4)")
	}
}

func TestSameInstructionDefsStronglyInterfere(t *testing.T) {
	bld := ir.NewBuilder("multi")
	bld.Block("entry")
	a, b := bld.Val("a"), bld.Val("b")
	bld.Call("f", []ir.ValueID{a, b})
	s := bld.Val("s")
	bld.Binary(ir.Add, s, a, b)
	bld.Output(s)
	an := analyze(bld.Fn, interference.Exact)
	if !an.StronglyInterfere(a, b) {
		t.Fatal("two results of one instruction must strongly interfere")
	}
}

// Optimistic mode misses a kill when the killed variable dies within the
// defining block; pessimistic reports a kill that exact does not.
func TestOptimisticAndPessimisticModes(t *testing.T) {
	bld := ir.NewBuilder("modes")
	bld.Block("entry")
	x, y, z, w := bld.Val("x"), bld.Val("y"), bld.Val("z"), bld.Val("w")
	bld.Const(x, 1)
	bld.Const(y, 2)
	bld.Binary(ir.Add, z, x, x) // last use of x: x dead after this
	bld.Binary(ir.Add, w, z, y)
	bld.Output(w)

	exact := analyze(bld.Fn, interference.Exact)
	opt := analyze(bld.Fn, interference.Optimistic)
	pess := analyze(bld.Fn, interference.Pessimistic)

	// y kills x? x's def dominates y's def; x live after y's def (used by
	// z's def). Exact: yes. Optimistic: x not live-out of entry -> missed.
	if !exact.Kills(y, x) {
		t.Fatal("exact: y kills x")
	}
	if opt.Kills(y, x) {
		t.Fatal("optimistic must miss the kill (x dies within the block)")
	}
	if !pess.Kills(y, x) {
		t.Fatal("pessimistic: same-block defs kill")
	}
	// z kills y? y's def dominates z's def; y live after z (used by w).
	// All modes should agree here (y live-in? y defined in entry... y is
	// not live-in; pessimistic uses same-block rule).
	if !exact.Kills(z, y) || !pess.Kills(z, y) {
		t.Fatal("z kills y in exact and pessimistic modes")
	}
}

// Resource-level: merging classes detects member kills and pinned-use
// clobbers.
func TestResourceInterfere(t *testing.T) {
	bld := ir.NewBuilder("resint")
	bld.Block("entry")
	f := bld.Fn
	a, b, s := bld.Val("a"), bld.Val("b"), bld.Val("s")
	bld.Const(a, 1)
	bld.Const(b, 2)
	bld.Binary(ir.Add, s, a, b) // a and b both live here
	bld.Output(s)

	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(f, interference.Exact)
	rg := interference.NewResourceGraph(an, res)
	if !rg.Interfere(a, b) {
		t.Fatal("a and b overlap: resources interfere")
	}
	if rg.Interfere(a, a) {
		t.Fatal("a resource does not interfere with itself")
	}
	if !rg.Interfere(f.Target.R[0], f.Target.R[1]) {
		t.Fatal("distinct physical registers always interfere")
	}
}

func TestResourceKilledWithinClass(t *testing.T) {
	bld := ir.NewBuilder("killed")
	bld.Block("entry")
	f := bld.Fn
	a, b, s := bld.Val("a"), bld.Val("b"), bld.Val("s")
	bld.Const(a, 1)
	bld.Const(b, 2)
	bld.Binary(ir.Add, s, a, b)
	bld.Output(s)

	res, _ := pin.NewResources(f)
	res.Union(a, b) // force them together despite the interference
	an := analyze(f, interference.Exact)
	rg := interference.NewResourceGraph(an, res)
	if !rg.IsKilled(a) {
		t.Fatal("a must be killed within the merged resource (b's def clobbers it)")
	}
	if rg.IsKilled(b) {
		t.Fatal("b is the last writer; not killed")
	}
}

// A pinned use clobbers other members of the pinned resource that are
// live across the instruction.
func TestPinSiteKills(t *testing.T) {
	bld := ir.NewBuilder("pinsite")
	bld.Block("entry")
	f := bld.Fn
	r2 := f.Target.R[2]
	p, arg, d, s := bld.Val("p"), bld.Val("arg"), bld.Val("d"), bld.Val("s")
	in := bld.Input(p, arg)
	in.SetDefPin(0, r2) // p lives in R2
	call := bld.Call("f", []ir.ValueID{d}, arg)
	call.SetUsePin(0, r2) // the call wants arg in R2 — clobbers p
	bld.Binary(ir.Add, s, p, d)
	bld.Output(s)

	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(f, interference.Exact)
	rg := interference.NewResourceGraph(an, res)
	if !rg.IsKilled(p) {
		t.Fatal("p must be killed by the pinned use of arg in R2")
	}
}

func TestInterfereSymmetric(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		an := analyze(f, interference.Exact)
		nv := f.NumValues()
		for i := 0; i < nv; i += 3 {
			for j := 0; j < nv; j += 3 {
				a, b := ir.ValueID(i), ir.ValueID(j)
				if f.IsPhys(a) || f.IsPhys(b) {
					continue
				}
				if an.Interfere(a, b) != an.Interfere(b, a) {
					t.Fatalf("seed %d: Interfere(%v,%v) asymmetric", seed, f.VStr(a), f.VStr(b))
				}
				if an.StronglyInterfere(a, b) != an.StronglyInterfere(b, a) {
					t.Fatalf("seed %d: StronglyInterfere(%v,%v) asymmetric", seed, f.VStr(a), f.VStr(b))
				}
			}
		}
	}
}
