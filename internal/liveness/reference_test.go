package liveness_test

import (
	"fmt"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// reachable returns the blocks of f reachable from its entry.
func reachable(f *ir.Func) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for si := 0; si < b.NumSuccs(); si++ {
			if s := b.Succ(si); !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// checkAgainstReference holds Compute to the path definition of liveness
// (refLiveIn) on every reachable block of f and every value: live-in,
// live-out (live into some successor) and exit-live (live-out, or read
// by a φ of a successor at the end of the block). An unreachable block
// keeps empty sets, since the fixed point never visits it.
func checkAgainstReference(t *testing.T, f *ir.Func) {
	t.Helper()
	live := liveness.Compute(f)
	reach := reachable(f)
	nv := f.NumValues()
	refIn := make(map[*ir.Block][]bool, len(reach))
	for b := range reach {
		row := make([]bool, nv)
		for id := range row {
			row[id] = refLiveIn(ir.ValueID(id), b)
		}
		refIn[b] = row
	}
	for _, b := range f.Blocks() {
		if !reach[b] {
			if !live.LiveInSet(b).Empty() || !live.ExitLiveSet(b).Empty() {
				t.Fatalf("%s: unreachable %v has live values: in %v, exit %v\n%s",
					f.Name, b, live.LiveInSet(b).Elems(), live.ExitLiveSet(b).Elems(), f)
			}
			continue
		}
		for id := 0; id < nv; id++ {
			v := ir.ValueID(id)
			out, exit := false, false
			for si := 0; si < b.NumSuccs(); si++ {
				s := b.Succ(si)
				out = out || refIn[s][id]
				pi := s.PredIndex(b.ID)
				for _, phi := range s.Phis() {
					exit = exit || phi.Use(pi) == v
				}
			}
			exit = exit || out
			if got, want := live.LiveIn(v, b), refIn[b][id]; got != want {
				t.Fatalf("%s: LiveIn(%v, %v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, want, f)
			}
			if got := live.LiveOut(v, b); got != out {
				t.Fatalf("%s: LiveOut(%v, %v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, out, f)
			}
			if got := live.ExitLiveSet(b).Has(id); got != exit {
				t.Fatalf("%s: %v in ExitLiveSet(%v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, exit, f)
			}
		}
	}
}

// ssaRand generates a random structured program and converts it to SSA
// with the real pin-collect phases, matching the production pipeline's
// IR shape (φ webs, SP ties, ABI slots).
func ssaRand(t *testing.T, seed int64, opt testprog.RandOptions) *ir.Func {
	t.Helper()
	f := testprog.Rand(seed, opt)
	info, err := ssa.Build(f)
	if err != nil {
		t.Fatalf("ssa.Build(seed %d): %v", seed, err)
	}
	pin.CollectSP(f, info)
	pin.CollectABI(f)
	return f
}

// TestLivenessEnginesAgree is the property test: over random functions,
// in the pinned SSA form and in the raw pre-SSA form (variables defined
// on every assignment), the fixed point (Compute) and the path-walking
// definition of liveness (refLiveIn) must agree exactly.
func TestLivenessEnginesAgree(t *testing.T) {
	t.Run("ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			checkAgainstReference(t, ssaRand(t, seed, testprog.DefaultRandOptions()))
		}
	})
	t.Run("pre-ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			checkAgainstReference(t, testprog.Rand(seed, testprog.DefaultRandOptions()))
		}
	})
}

// TestLivenessEnginesAgreeOnSuites makes the same check on the
// deterministic test programs (lost copy, swap, nesting).
func TestLivenessEnginesAgreeOnSuites(t *testing.T) {
	for _, f := range testprog.All() {
		ssa.MustBuild(f)
		checkAgainstReference(t, f)
	}
}

// TestLivenessAgainstReference makes the same check on random functions
// in the SSA form ssa.Build leaves, before any pin is collected.
func TestLivenessAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.MustBuild(f)
		checkAgainstReference(t, f)
	}
}

// TestLivenessUnreachableBlocks pins the unreachable-block contract: the
// fixed point sweeps only entry-reachable blocks, so an unreachable
// block keeps empty sets, and neither its uses nor the φ arguments
// flowing from it extend any live range.
func TestLivenessUnreachableBlocks(t *testing.T) {
	bld := ir.NewBuilder("unreach")
	entry := bld.Block("entry")
	left := bld.Fn.NewBlock("left")
	right := bld.Fn.NewBlock("right")
	dead := bld.Fn.NewBlock("dead")
	merge := bld.Fn.NewBlock("merge")

	a, one, c := bld.Val("a"), bld.Val("one"), bld.Val("c")
	x1, x2, x3, d, r := bld.Val("x1"), bld.Val("x2"), bld.Val("x3"), bld.Val("d"), bld.Val("r")

	bld.SetBlock(entry)
	bld.Input(a)
	bld.Const(one, 1)
	bld.Binary(ir.CmpLT, c, a, one)
	bld.Br(c, left, right)

	bld.SetBlock(left)
	bld.Binary(ir.Add, x1, a, one)
	bld.Jump(merge)

	bld.SetBlock(right)
	bld.Binary(ir.Add, x2, a, a)
	bld.Jump(merge)

	// No edge leads here: uses of reachable values (a, x1) in this block
	// must not extend their live ranges, and the φ argument flowing from
	// this block must not be exit-live anywhere.
	bld.SetBlock(dead)
	bld.Binary(ir.Add, d, a, x1)
	bld.Jump(merge)

	bld.SetBlock(merge)
	bld.Phi(x3, x1, x2, d)
	bld.Binary(ir.Mul, r, x3, a)
	bld.Output(r)

	f := bld.Fn
	checkAgainstReference(t, f)

	live := liveness.Compute(f)
	for id := 0; id < f.NumValues(); id++ {
		if live.LiveOut(ir.ValueID(id), dead) {
			t.Fatalf("%v reported live out of the unreachable block", f.VStr(ir.ValueID(id)))
		}
	}
	if live.ExitLiveSet(dead).Has(int(d)) {
		t.Fatal("φ argument from an unreachable predecessor reported exit-live")
	}
	if live.LiveOut(x1, left) {
		t.Fatal("a use in the unreachable block kept x1 live out of its definition block")
	}
}

// TestLivenessPhiHeavy checks a merge carrying a wide φ prefix (every
// arm value flows through its own φ and stays live past the merge), the
// shape that stresses the φ-edge uses and the parallel φ semantics.
func TestLivenessPhiHeavy(t *testing.T) {
	const k = 12
	bld := ir.NewBuilder("phiheavy")
	entry := bld.Block("entry")
	left := bld.Fn.NewBlock("left")
	right := bld.Fn.NewBlock("right")
	merge := bld.Fn.NewBlock("merge")

	a, one, c := bld.Val("a"), bld.Val("one"), bld.Val("c")
	bld.SetBlock(entry)
	bld.Input(a)
	bld.Const(one, 1)
	bld.Binary(ir.CmpLT, c, a, one)
	bld.Br(c, left, right)

	var ls, rs, ms [k]ir.ValueID
	for i := range ls {
		ls[i] = bld.Val(fmt.Sprintf("l%d", i))
		rs[i] = bld.Val(fmt.Sprintf("r%d", i))
		ms[i] = bld.Val(fmt.Sprintf("m%d", i))
	}
	bld.SetBlock(left)
	for i := range ls {
		bld.Binary(ir.Add, ls[i], a, one)
	}
	bld.Jump(merge)
	bld.SetBlock(right)
	for i := range rs {
		bld.Binary(ir.Add, rs[i], a, a)
	}
	bld.Jump(merge)

	bld.SetBlock(merge)
	for i := range ms {
		bld.Phi(ms[i], ls[i], rs[i])
	}
	sum := ms[0]
	for i := 1; i < k; i++ {
		next := bld.Val(fmt.Sprintf("s%d", i))
		bld.Binary(ir.Add, next, sum, ms[i])
		sum = next
	}
	bld.Output(sum)

	checkAgainstReference(t, bld.Fn)
}

// fuzzOptions maps the fuzzed size to generator knobs, mirroring the
// interference fuzzer so crashers transfer between corpora.
func fuzzOptions(size int64) testprog.RandOptions {
	if size < 0 {
		size = -size
	}
	return testprog.RandOptions{
		MaxDepth:      int(1 + size%3),
		Vars:          int(3 + (size/3)%5),
		StmtsPerBlock: int(1 + (size/18)%5),
		Calls:         size%2 == 0,
		Stack:         (size/2)%2 == 0,
	}
}

// FuzzLivenessAgainstReference fuzzes Compute against the path
// definition of liveness, on both the pre-SSA and the pinned-SSA form of
// each random function.
func FuzzLivenessAgainstReference(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzOptions(size)
		checkAgainstReference(t, testprog.Rand(seed, opt))
		checkAgainstReference(t, ssaRand(t, seed, opt))
	})
}
