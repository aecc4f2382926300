package liveness_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// TestMaxLiveKnownValues pins MAXLIVE on programs small enough to count
// by hand.
func TestMaxLiveKnownValues(t *testing.T) {
	// Straight line: a, b live together between the input and the add,
	// then only c. MAXLIVE = 2.
	bld := ir.NewBuilder("straight")
	entry := bld.Block("entry")
	a, b, c := bld.Val("a"), bld.Val("b"), bld.Val("c")
	bld.SetBlock(entry)
	bld.Input(a, b)
	bld.Binary(ir.Add, c, a, b)
	bld.Output(c)
	f := bld.Fn
	if got := liveness.MaxLive(f, liveness.Compute(f)); got != 2 {
		t.Fatalf("straight-line MAXLIVE = %d, want 2", got)
	}

	// The loop program in SSA form: pressure peaks at the head's branch
	// point with n, the φ'd counter and accumulator, the loop-invariant
	// constant `one`, and the comparison result all in flight.
	g := testprog.Loop()
	ssa.MustBuild(g)
	got := liveness.MaxLive(g, liveness.Compute(g))
	if got != 5 {
		t.Fatalf("loop MAXLIVE = %d, want 5", got)
	}
}

// TestMaxLiveMatchesLiveAfter: MAXLIVE is the largest live set at any
// program point, so on every shared test program and a pile of random
// ones it must equal the largest exit-live or LiveAfter set (index -1 is
// the block's entry point), and be positive.
func TestMaxLiveMatchesLiveAfter(t *testing.T) {
	funcs := testprog.All()
	for seed := int64(0); seed < 20; seed++ {
		funcs = append(funcs, testprog.Rand(seed, testprog.DefaultRandOptions()))
	}
	for _, f := range funcs {
		ssa.MustBuild(f)
		live := liveness.Compute(f)
		want := 0
		for _, b := range f.Blocks() {
			want = max(want, live.ExitLiveSet(b).Len())
			for i := -1; i < b.NumInstrs(); i++ {
				want = max(want, live.LiveAfter(b, i).Len())
			}
		}
		got := liveness.MaxLive(f, live)
		if got != want {
			t.Fatalf("%s: MAXLIVE = %d, want %d", f.Name, got, want)
		}
		if got <= 0 {
			t.Fatalf("%s: MAXLIVE = %d, want positive", f.Name, got)
		}
	}
}
