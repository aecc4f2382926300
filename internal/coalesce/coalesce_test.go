package coalesce_test

import (
	"testing"

	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

func run(t *testing.T, f *ir.Func, opt coalesce.Options) (*coalesce.Stats, *leung.Stats) {
	t.Helper()
	st, err := coalesce.ProgramPinning(f, opt)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	if err := pin.Validate(f, res); err != nil {
		t.Fatalf("%s: coalescing produced invalid pinning: %v", f.Name, err)
	}
	lst, err := leung.Translate(f)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return st, lst
}

// TestPaperFigure5 builds the paper's Figure 5 situation: x = φ(x1, x2)
// where x1 and x2 interfere. Pinning both arguments (b) would force a
// repair; the algorithm must pin exactly one (c), leaving one move.
func TestPaperFigure5(t *testing.T) {
	bld := ir.NewBuilder("fig5")
	entry := bld.Block("entry")
	l1 := bld.Fn.NewBlock("L1")
	l2 := bld.Fn.NewBlock("L2")
	join := bld.Fn.NewBlock("join")

	c, x1, x2, x := bld.Val("c"), bld.Val("x1"), bld.Val("x2"), bld.Val("x")
	bld.SetBlock(entry)
	bld.Input(c)
	bld.Const(x1, 5)               // exp1
	bld.Binary(ir.Add, x2, x1, x1) // exp2 — x1 live past x2's def: they interfere
	bld.Br(c, l1, l2)
	bld.SetBlock(l1)
	bld.Jump(join)
	bld.SetBlock(l2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x, x1, x2)
	bld.Output(x)
	if err := ssa.Verify(bld.Fn); err != nil {
		t.Fatal(err)
	}

	st, lst := run(t, bld.Fn, coalesce.Options{})
	if st.Gain != 1 {
		t.Fatalf("gain = %d, want exactly 1 (one argument coalesced, the other interferes)", st.Gain)
	}
	if lst.Repairs != 0 {
		t.Fatalf("repairs = %d; coalescing must not create interferences (Fig 5b)", lst.Repairs)
	}
	if got := bld.Fn.CountMoves(); got != 1 {
		t.Fatalf("moves = %d, want 1 (Fig 5c)\n%s", got, bld.Fn)
	}
}

// fig9 builds Figure 9: two φs of one block sharing the argument y.
//
//	p1: x = f1; z = f3        p2: y = f2
//	join: X = φ(x, y); Y = φ(z, y); use f(X, Y)
func fig9() *ir.Func {
	bld := ir.NewBuilder("fig9")
	entry := bld.Block("entry")
	p1 := bld.Fn.NewBlock("p1")
	p2 := bld.Fn.NewBlock("p2")
	join := bld.Fn.NewBlock("join")

	c := bld.Val("c")
	x, y, z := bld.Val("x"), bld.Val("y"), bld.Val("z")
	xx, yy := bld.Val("X"), bld.Val("Y")
	r := bld.Val("r")

	bld.SetBlock(entry)
	bld.Input(c)
	bld.Br(c, p1, p2)
	bld.SetBlock(p1)
	bld.Call("f1", []ir.ValueID{x})
	bld.Call("f3", []ir.ValueID{z})
	bld.Jump(join)
	bld.SetBlock(p2)
	bld.Call("f2", []ir.ValueID{y})
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(xx, x, y)
	bld.Phi(yy, z, y)
	bld.Binary(ir.Add, r, xx, yy)
	bld.Output(r)
	return bld.Fn
}

// TestPaperFigure9: treating the block's φs together must reach 1 move;
// Sreedhar's per-φ sequential treatment reaches 2 (checked in the
// pipeline tests via experiment configs; here we check our side).
func TestPaperFigure9(t *testing.T) {
	f := fig9()
	if err := ssa.Verify(f); err != nil {
		t.Fatal(err)
	}
	st, _ := run(t, f, coalesce.Options{})
	if st.Gain != 3 {
		t.Fatalf("gain = %d, want 3 of 4 slots coalesced", st.Gain)
	}
	if got := f.CountMoves(); got != 1 {
		t.Fatalf("moves = %d, want 1:\n%s", got, f)
	}
}

// TestSameBlockPhisNeverMerged: φ definitions of one block strongly
// interfere; the coalescer must never unite them even via shared
// arguments.
func TestSameBlockPhisNeverMerged(t *testing.T) {
	f := fig9()
	_, err := coalesce.ProgramPinning(f, coalesce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	var phis []*ir.Instr
	for _, b := range f.Blocks() {
		for _, p := range b.Phis() {
			phis = append(phis, p)
		}
	}
	if len(phis) != 2 {
		t.Fatalf("want 2 φs, got %d", len(phis))
	}
	if res.Find(phis[0].Def(0)) == res.Find(phis[1].Def(0)) {
		t.Fatal("same-block φ defs were merged into one resource")
	}
}

// TestCoalesceNeverIncreasesPhiMoves: with coalescing, the translator's
// φ moves must satisfy moves >= slots - gain and never exceed the
// uncoalesced count.
func TestCoalesceAccounting(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		base := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(base)
		baseline, err := leung.Translate(base)
		if err != nil {
			t.Fatal(err)
		}

		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		st, lst := run(t, f, coalesce.Options{})
		if lst.PhiMoves > baseline.PhiMoves {
			t.Fatalf("seed %d: coalescing increased φ moves %d -> %d",
				seed, baseline.PhiMoves, lst.PhiMoves)
		}
		if lst.PhiMoves < st.PhiSlots-st.Gain {
			t.Fatalf("seed %d: accounting broken: moves=%d slots=%d gain=%d",
				seed, lst.PhiMoves, st.PhiSlots, st.Gain)
		}
		if st.Gain > st.PhiSlots {
			t.Fatalf("seed %d: gain exceeds slots", seed)
		}
	}
}

// TestCoalesceNoNewRepairs: Condition 2 — pinning must not create new
// interferences, so the number of repairs must not grow.
func TestCoalesceNoNewRepairs(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		base := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(base)
		baseline, err := leung.Translate(base)
		if err != nil {
			t.Fatal(err)
		}
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		_, lst := run(t, f, coalesce.Options{})
		if lst.Repairs > baseline.Repairs {
			t.Fatalf("seed %d: coalescing created repairs: %d -> %d",
				seed, baseline.Repairs, lst.Repairs)
		}
	}
}

// TestVariants: all four Table 5 variants terminate, validate and
// preserve semantics; pessimistic must coalesce no more than base.
func TestVariants(t *testing.T) {
	variants := map[string]coalesce.Options{
		"base":  {},
		"depth": {DepthConstraint: true},
		"opt":   {Mode: interference.Optimistic},
		"pess":  {Mode: interference.Pessimistic},
	}
	for seed := int64(0); seed < 15; seed++ {
		gains := map[string]int{}
		for name, opt := range variants {
			f := testprog.Rand(seed, testprog.DefaultRandOptions())
			ref := testprog.Rand(seed, testprog.DefaultRandOptions())
			args := []int64{seed, 7, 3}
			want, err := ir.Exec(ref, args, 500000)
			if err != nil {
				t.Fatal(err)
			}
			ssa.Build(f)
			st, _ := run(t, f, opt)
			gains[name] = st.Gain
			got, err := ir.Exec(f, args, 1000000)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !want.Equal(got) {
				t.Fatalf("seed %d variant %s changed behaviour", seed, name)
			}
		}
		if gains["pess"] > gains["base"] {
			t.Errorf("seed %d: pessimistic gained more than base (%d > %d)",
				seed, gains["pess"], gains["base"])
		}
	}
}

// TestDepthVariantPrioritizesInnerLoops: with the depth constraint, a φ
// argument defined in the innermost loop is considered before outer ones.
func TestDepthVariant(t *testing.T) {
	f := testprog.NestedLoops()
	ssa.Build(f)
	st, _ := run(t, f, coalesce.Options{DepthConstraint: true})
	if st.Gain == 0 {
		t.Fatal("depth variant coalesced nothing on the nested-loop program")
	}
}

// TestGainOnStructured: the loop programs have trivially coalescable φ
// webs (i = φ(i0, i+1) chains); most slots must coalesce.
func TestGainOnStructured(t *testing.T) {
	f := testprog.Loop()
	ssa.Build(f)
	st, _ := run(t, f, coalesce.Options{})
	// Loop has φs for i and s with 2 args each: i web fully coalescable;
	// gain must be at least 3 of 4.
	if st.Gain < 3 {
		t.Fatalf("gain = %d/%d, want >= 3", st.Gain, st.PhiSlots)
	}
	if f.CountMoves() > 1 {
		t.Fatalf("moves = %d, want <= 1:\n%s", f.CountMoves(), f)
	}
}
