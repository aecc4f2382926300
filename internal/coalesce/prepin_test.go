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

// TestPrePinRemovesTieMove: a 2-operand instruction whose tied source
// dies there can have the source's definition pinned to the destination,
// removing the tie move entirely.
func TestPrePinRemovesTieMove(t *testing.T) {
	bld := ir.NewBuilder("tie")
	bld.Block("entry")
	a, q := bld.Val("a"), bld.Val("q")
	bld.Input(a)
	ad := bld.AutoAdd(q, a, 4) // a dies here
	ad.SetUsePin(0, q)         // the 2-operand tie (what CollectABI emits)
	bld.Output(q)

	st, err := coalesce.PrePinDefs(bld.Fn, interference.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if st.DefsPinned != 1 {
		t.Fatalf("pre-pinned %d defs, want 1", st.DefsPinned)
	}
	if _, err := leung.Translate(bld.Fn); err != nil {
		t.Fatal(err)
	}
	if n := bld.Fn.CountMoves(); n != 0 {
		t.Fatalf("tie move survived: %d moves\n%s", n, bld.Fn)
	}
}

// TestPrePinSkipsInterfering: when the tied source is still live after
// the instruction, pre-pinning it to the destination would clobber it —
// the pre-pass must refuse.
func TestPrePinSkipsInterfering(t *testing.T) {
	bld := ir.NewBuilder("tie2")
	bld.Block("entry")
	a, q, s := bld.Val("a"), bld.Val("q"), bld.Val("s")
	bld.Input(a)
	ad := bld.AutoAdd(q, a, 4)
	ad.SetUsePin(0, q)
	bld.Binary(ir.Add, s, q, a) // a live past the autoadd
	bld.Output(s)

	st, err := coalesce.PrePinDefs(bld.Fn, interference.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if st.DefsPinned != 0 || st.Skipped == 0 {
		t.Fatalf("stats: %+v (must skip the interfering candidate)", st)
	}
	// The translation now needs the tie move, and the program still works.
	if _, err := leung.Translate(bld.Fn); err != nil {
		t.Fatal(err)
	}
	res, err := ir.Exec(bld.Fn, []int64{10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 24 {
		t.Fatalf("got %v, want 24", res.Outputs)
	}
}

// TestPrePinPreservesSemantics: the full pre-pin + pinningφ + translate
// pipeline keeps behaviour and produces valid pinning on random programs.
func TestPrePinPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		ref := testprog.Rand(seed, testprog.DefaultRandOptions())
		args := []int64{seed, 4, 11}
		want, err := ir.Exec(ref, args, 500000)
		if err != nil {
			t.Fatal(err)
		}
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		info := ssa.MustBuild(f)
		pin.CollectSP(f, info)
		pin.CollectABI(f)
		if _, err := coalesce.PrePinDefs(f, interference.Exact); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := pin.NewResources(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(f, res); err != nil {
			t.Fatalf("seed %d: pre-pinning produced invalid pinning: %v", seed, err)
		}
		if _, err := coalesce.ProgramPinning(f, coalesce.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := leung.Translate(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := ir.Exec(f, args, 1000000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !want.Equal(got) {
			t.Fatalf("seed %d: pre-pinning changed behaviour", seed)
		}
	}
}

// TestPrePinNeverIncreasesRepairs: Condition 2 for the pre-pass.
func TestPrePinNeverIncreasesRepairs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mk := func() *ir.Func {
			f := testprog.Rand(seed, testprog.DefaultRandOptions())
			info := ssa.MustBuild(f)
			pin.CollectSP(f, info)
			pin.CollectABI(f)
			return f
		}
		base := mk()
		bst, err := leung.Translate(base)
		if err != nil {
			t.Fatal(err)
		}
		f := mk()
		if _, err := coalesce.PrePinDefs(f, interference.Exact); err != nil {
			t.Fatal(err)
		}
		pst, err := leung.Translate(f)
		if err != nil {
			t.Fatal(err)
		}
		if pst.Repairs > bst.Repairs {
			t.Fatalf("seed %d: pre-pinning created repairs: %d -> %d",
				seed, bst.Repairs, pst.Repairs)
		}
		if pst.PinMoves > bst.PinMoves {
			t.Fatalf("seed %d: pre-pinning increased pin moves: %d -> %d",
				seed, bst.PinMoves, pst.PinMoves)
		}
	}
}
