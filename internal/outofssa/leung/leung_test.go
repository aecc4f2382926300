package leung_test

import (
	"os"
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
)

// destruct runs the full SSA round trip: build pruned SSA, optionally
// collect SP/ABI pins, translate out of SSA, and sanity-check the result.
func destruct(t *testing.T, f *ir.Func, abi bool) *leung.Stats {
	t.Helper()
	info := ssa.MustBuild(f)
	if err := ssa.Verify(f); err != nil {
		t.Fatalf("%s: ssa: %v", f.Name, err)
	}
	pin.CollectSP(f, info)
	if abi {
		pin.CollectABI(f)
	}
	st, err := leung.Translate(f)
	if err != nil {
		t.Fatalf("%s: translate: %v", f.Name, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("%s: post-translate verify: %v\n%s", f.Name, err, f)
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Phi || in.Op() == ir.ParCopy {
				t.Fatalf("%s: %v remains after translation", f.Name, in.Op())
			}
		}
	}
	return st
}

func roundTrip(t *testing.T, mk func() *ir.Func, abi bool, args []int64) {
	t.Helper()
	ref := mk()
	want, err := ir.Exec(ref, args, 500000)
	if err != nil {
		t.Fatalf("%s: reference exec: %v", ref.Name, err)
	}
	f := mk()
	destruct(t, f, abi)
	got, err := ir.Exec(f, args, 1000000)
	if err != nil {
		t.Fatalf("%s: post exec: %v\n%s", f.Name, err, f)
	}
	if !want.Equal(got) {
		t.Fatalf("%s (abi=%v): behaviour changed\nwant %+v\ngot  %+v\n%s",
			f.Name, abi, want, got, f)
	}
}

func TestTranslateStructured(t *testing.T) {
	argSets := [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {5, 5, 5}, {100, 3, 7}}
	for _, mk := range []func() *ir.Func{
		testprog.Diamond, testprog.Loop, testprog.NestedLoops,
		testprog.SwapLoop, testprog.LostCopy, testprog.WithCallsAndStack,
	} {
		for _, abi := range []bool{false, true} {
			for _, args := range argSets {
				roundTrip(t, mk, abi, args)
			}
		}
	}
}

func TestTranslateRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, abi := range []bool{false, true} {
			mk := func() *ir.Func { return testprog.Rand(seed, testprog.DefaultRandOptions()) }
			roundTrip(t, mk, abi, []int64{seed, 13, seed % 7})
			roundTrip(t, mk, abi, []int64{0, 0, 0})
		}
	}
}

// TestSwapProblem: the swap loop must survive translation — the φ cycle
// at the loop header requires parallel-copy sequentialization with a
// temporary, the classic swap problem.
func TestSwapProblem(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 5} {
		mk := testprog.SwapLoop
		ref := mk()
		want, _ := ir.Exec(ref, []int64{3, 9, n}, 100000)
		f := mk()
		destruct(t, f, false)
		got, err := ir.Exec(f, []int64{3, 9, n}, 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("swap problem mishandled for n=%d", n)
		}
	}
}

// TestLostCopyProblem: the φ result outlives the redefinition of its
// argument; translation must repair (Briggs' lost-copy problem).
func TestLostCopyProblem(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 10} {
		ref := testprog.LostCopy()
		want, _ := ir.Exec(ref, []int64{n}, 100000)
		f := testprog.LostCopy()
		destruct(t, f, false)
		got, err := ir.Exec(f, []int64{n}, 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("lost copy mishandled for n=%d: want %v got %v", n, want.Outputs, got.Outputs)
		}
	}
}

// TestABIPinsMaterialized: with ABI collection, the output value must
// flow through R0 and call arguments through R0/R1.
func TestABIPinsMaterialized(t *testing.T) {
	f := testprog.WithCallsAndStack()
	destruct(t, f, true)
	r0 := f.Target.R[0]
	sawR0Use := false
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Output {
				for _, u := range in.Uses() {
					if u.Val == r0 {
						sawR0Use = true
					}
				}
			}
			if in.Op() == ir.Call {
				if in.NumUses() > 0 && in.Use(0) != r0 {
					t.Fatalf("call arg 0 not in R0: %v", in)
				}
				if in.NumDefs() > 0 && in.Def(0) != r0 {
					t.Fatalf("call result not in R0: %v", in)
				}
			}
		}
	}
	if !sawR0Use {
		t.Fatal(".output does not read R0 despite ABI pinning")
	}
}

// TestPaperFigure3 reproduces the paper's Figure 3: x3 is pinned to R0 by
// a φ but killed by the call result x4 (also pinned to R0) before its use
// in the return, so the translation must introduce a repair copy.
func TestPaperFigure3(t *testing.T) {
	bld := ir.NewBuilder("fig3")
	f := bld.Fn
	r0, r1 := f.Target.R[0], f.Target.R[1]

	entry := bld.Block("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	x0, y0 := bld.Val("x0"), bld.Val("y0")
	x1, y1 := bld.Val("x1"), bld.Val("y1")
	y2, x4, k := bld.Val("y2"), bld.Val("x4"), bld.Val("K")

	bld.SetBlock(entry)
	in := bld.Input(x0, y0)
	in.SetDefPin(0, r0)
	in.SetDefPin(1, r1)
	bld.Const(k, 3)
	bld.Jump(loop)

	bld.SetBlock(loop)
	// x1 plays the role of the paper's x3: pinned to R0 by its φ, killed
	// by the call result x4 (also pinned to R0), and used after the loop.
	phiX1 := bld.Phi(x1, x0, x4)
	phiX1.SetDefPin(0, r0)
	phiY1 := bld.Phi(y1, y0, y2)
	phiY1.SetDefPin(0, r1)

	bld.Binary(ir.Add, y2, y1, k)
	call := bld.Call("g", []ir.ValueID{x4}, x1, y2)
	call.SetDefPin(0, r0)
	call.SetUsePin(0, r0)
	call.SetUsePin(1, r1)
	c := bld.Val("c")
	bld.Binary(ir.CmpLT, c, x4, k)
	bld.Br(c, loop, exit)

	bld.SetBlock(exit)
	out := bld.Output(x1)
	out.SetUsePin(0, r0)

	if err := ssa.Verify(f); err != nil {
		t.Fatalf("hand-built SSA invalid: %v", err)
	}
	st, err := leung.Translate(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repairs == 0 {
		t.Fatal("figure 3 requires a repair copy for x1 (killed in R0 by the call)")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	// The repaired value must flow back into R0 before the return.
	var movesToR0InExit int
	for _, b := range f.Blocks() {
		if b.Name != "exit" {
			continue
		}
		for _, in := range b.Instrs() {
			if in.Op() == ir.Copy && in.Def(0) == r0 {
				movesToR0InExit++
			}
		}
	}
	if movesToR0InExit == 0 {
		t.Fatalf("expected a move restoring R0 before the return:\n%s", f)
	}
}

// TestNoRedundantMoveForPinnedUse: when a value already lives in the
// pinned resource, no move may be inserted (paper: "the algorithm is
// careful not to introduce a redundant move instruction in this case").
func TestNoRedundantMoveForPinnedUse(t *testing.T) {
	bld := ir.NewBuilder("redundant")
	f := bld.Fn
	r0 := f.Target.R[0]
	bld.Block("entry")
	a, b := bld.Val("a"), bld.Val("b")
	in := bld.Input(a)
	in.SetDefPin(0, r0) // a lives in R0
	call := bld.Call("f", []ir.ValueID{b}, a)
	call.SetUsePin(0, r0) // wants a in R0 — already there
	call.SetDefPin(0, r0)
	out := bld.Output(b)
	out.SetUsePin(0, r0) // b already in R0
	if err := ssa.Verify(f); err != nil {
		t.Fatal(err)
	}
	_, err := leung.Translate(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.CountMoves(); n != 0 {
		t.Fatalf("expected 0 moves, got %d:\n%s", n, f)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := testprog.Diamond()
	ssa.Build(f)
	st, err := leung.Translate(f)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing pinned, x's φ needs one move per predecessor.
	if st.PhiMoves != 2 || st.PinMoves != 0 || st.Repairs != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if f.CountMoves() != 2 {
		t.Fatalf("move count = %d, want 2", f.CountMoves())
	}
}

// TestTablesUnderKillOracle renders Tables 2–5 with every mark phase
// asking a ResourceGraph instead of walking (SetKillOracle) and
// requires the committed rendering byte for byte. It must not run in
// parallel with other tests of the package.
func TestTablesUnderKillOracle(t *testing.T) {
	want, err := os.ReadFile("../../stats/testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer leung.SetKillOracle(true)()
	ts, err := stats.AllTables()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range ts {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	if got := b.String(); got != string(want) {
		t.Errorf("tables under the kill-mark oracle differ from stats/testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}
