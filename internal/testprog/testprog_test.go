package testprog_test

import (
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/testprog"
)

func TestStructuredProgramsVerify(t *testing.T) {
	for _, f := range testprog.All() {
		if err := f.Verify(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

// TestRandDeterminism: the same seed must rebuild a structurally and
// behaviourally identical program (the whole evaluation depends on it).
func TestRandDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := testprog.Rand(seed, testprog.DefaultRandOptions())
		b := testprog.Rand(seed, testprog.DefaultRandOptions())
		if a.String() != b.String() {
			t.Fatalf("seed %d: rebuild differs", seed)
		}
		ra, err := ir.Exec(a, []int64{seed, 5, 2}, 500000)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ir.Exec(b, []int64{seed, 5, 2}, 500000)
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Equal(rb) {
			t.Fatalf("seed %d: behaviour differs", seed)
		}
	}
}

func TestRandDistinctSeeds(t *testing.T) {
	a := testprog.Rand(1, testprog.DefaultRandOptions())
	b := testprog.Rand(2, testprog.DefaultRandOptions())
	if a.String() == b.String() {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestRandTermination: generated loops are counted with constant bounds,
// so every program halts quickly whatever the inputs, in either loop
// shape.
func TestRandTermination(t *testing.T) {
	for _, bottom := range []bool{false, true} {
		opts := testprog.RandOptions{MaxDepth: 5, Vars: 8, StmtsPerBlock: 6, Calls: true, Stack: true,
			BottomTestedLoops: bottom}
		for seed := int64(0); seed < 20; seed++ {
			f := testprog.Rand(seed, opts)
			if err := f.Verify(); err != nil {
				t.Fatalf("seed %d bottom-tested %v: %v", seed, bottom, err)
			}
			for _, args := range [][]int64{{0, 0, 0}, {1 << 40, -5, 9}} {
				if _, err := ir.Exec(f, args, 2_000_000); err != nil {
					t.Fatalf("seed %d bottom-tested %v args %v: %v", seed, bottom, args, err)
				}
			}
		}
	}
}

// TestRandLoopShapes: a head-tested loop's back edge leaves a latch
// that only jumps back, so it is never critical; a bottom-tested loop's
// latch also branches to the exit, so its back edge always is.
func TestRandLoopShapes(t *testing.T) {
	for _, bottom := range []bool{false, true} {
		opts := testprog.DefaultRandOptions()
		opts.BottomTestedLoops = bottom
		backEdges, critical := 0, 0
		for seed := int64(0); seed < 50; seed++ {
			f := testprog.Rand(seed, opts)
			dom := cfg.Dominators(f)
			for _, b := range f.Blocks() {
				for _, s := range b.Succs() {
					if h := f.Block(s); dom.Dominates(h, b) {
						backEdges++
						if b.NumSuccs() > 1 && h.NumPreds() > 1 {
							critical++
						}
					}
				}
			}
		}
		if backEdges == 0 {
			t.Fatalf("bottom-tested %v: 50 programs without a loop", bottom)
		}
		if want := map[bool]int{false: 0, true: backEdges}[bottom]; critical != want {
			t.Fatalf("bottom-tested %v: %d of %d back edges critical, want %d", bottom, critical, backEdges, want)
		}
	}
}

// TestRandOptionsRespected: disabling calls and stack traffic must keep
// those features out of the program.
func TestRandOptionsRespected(t *testing.T) {
	opts := testprog.RandOptions{MaxDepth: 3, Vars: 6, StmtsPerBlock: 5}
	for seed := int64(0); seed < 10; seed++ {
		f := testprog.Rand(seed, opts)
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Op() == ir.Call {
					t.Fatalf("seed %d: call emitted with Calls disabled", seed)
				}
				for _, o := range append(append([]ir.Operand{}, in.Defs()...), in.Uses()...) {
					if o.Val == f.Target.SP {
						t.Fatalf("seed %d: SP used with Stack disabled", seed)
					}
				}
			}
		}
	}
}
