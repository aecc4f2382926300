package liveness_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
)

// crossCheckEngines requires the query engine to agree bit-for-bit with
// the iterative fixed point on f, over every query the API offers: the
// dense per-block sets, every (variable, block) point query, and the
// per-instruction LiveAfter sets. Two query Infos are exercised — one
// asked point queries first (so the strict-variable dominance fast path
// and the per-variable walks answer before any dense set exists) and
// one asked for dense sets first (so the block assembly drives the
// walks) — because the two orders take different code paths to the same
// memos.
func crossCheckEngines(t *testing.T, f *ir.Func) {
	t.Helper()
	it := liveness.Compute(f)
	dom := cfg.Dominators(f)
	qPoint := liveness.NewQuery(f, dom)
	qSet := liveness.NewQuery(f, dom)

	for _, b := range f.Blocks() {
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if got, want := qPoint.LiveIn(v, b), it.LiveIn(v, b); got != want {
				t.Fatalf("%s: LiveIn(%v, %v): query=%v iterative=%v\n%s", f.Name, f.VStr(v), b, got, want, f)
			}
			if got, want := qPoint.LiveOut(v, b), it.LiveOut(v, b); got != want {
				t.Fatalf("%s: LiveOut(%v, %v): query=%v iterative=%v\n%s", f.Name, f.VStr(v), b, got, want, f)
			}
			if got, want := qPoint.ExitLive(v, b), it.ExitLiveSet(b).Has(id); got != want {
				t.Fatalf("%s: ExitLive(%v, %v): query=%v iterative=%v\n%s", f.Name, f.VStr(v), b, got, want, f)
			}
		}
	}
	for _, b := range f.Blocks() {
		if !qSet.LiveInSet(b).Equal(it.LiveInSet(b)) {
			t.Fatalf("%s: LiveInSet(%v): query %v, iterative %v\n%s",
				f.Name, b, qSet.LiveInSet(b).Elems(), it.LiveInSet(b).Elems(), f)
		}
		if !qSet.LiveOutSet(b).Equal(it.LiveOutSet(b)) {
			t.Fatalf("%s: LiveOutSet(%v): query %v, iterative %v\n%s",
				f.Name, b, qSet.LiveOutSet(b).Elems(), it.LiveOutSet(b).Elems(), f)
		}
		if !qSet.ExitLiveSet(b).Equal(it.ExitLiveSet(b)) {
			t.Fatalf("%s: ExitLiveSet(%v): query %v, iterative %v\n%s",
				f.Name, b, qSet.ExitLiveSet(b).Elems(), it.ExitLiveSet(b).Elems(), f)
		}
		for i := 0; i < b.NumInstrs(); i++ {
			if !qSet.LiveAfter(b, i).Equal(it.LiveAfter(b, i)) {
				t.Fatalf("%s: LiveAfter(%v, %d): query %v, iterative %v\n%s",
					f.Name, b, i, qSet.LiveAfter(b, i).Elems(), it.LiveAfter(b, i).Elems(), f)
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

// TestLivenessEnginesAgree is the property test: over random functions
// — both the raw pre-SSA form (multi-def variables, no strictness) and
// the pinned SSA form — the engines must agree exactly.
func TestLivenessEnginesAgree(t *testing.T) {
	t.Run("ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			crossCheckEngines(t, ssaRand(t, seed, testprog.DefaultRandOptions()))
		}
	})
	// Pre-SSA: variables are defined on every assignment, so almost
	// nothing is strict and the engine has to fall back to exact walks.
	t.Run("pre-ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			crossCheckEngines(t, testprog.Rand(seed, testprog.DefaultRandOptions()))
		}
	})
}

// TestLivenessEnginesAgreeOnSuites cross-checks the deterministic test
// programs (lost copy, swap, nesting).
func TestLivenessEnginesAgreeOnSuites(t *testing.T) {
	for i, mk := range []func() *ir.Func{
		testprog.Diamond, testprog.Loop, testprog.SwapLoop, testprog.NestedLoops,
	} {
		f := mk()
		if _, err := ssa.Build(f); err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		crossCheckEngines(t, f)
	}
}

// TestLivenessEnginesAgreeUnreachable pins the unreachable-block
// contract: the iterative engine sweeps only entry-reachable blocks, so
// unreachable blocks keep empty sets and their φ edges and uses
// contribute nothing — the query engine must filter its summaries the
// same way, not treat the dead block's uses as live-range seeds.
func TestLivenessEnginesAgreeUnreachable(t *testing.T) {
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
	crossCheckEngines(t, f)

	q := liveness.NewQuery(f, cfg.Dominators(f))
	if q.LiveOut(a, dead) || !q.LiveOutSet(dead).Empty() {
		t.Fatal("unreachable block has a non-empty live set under the query engine")
	}
	if q.ExitLive(d, dead) {
		t.Fatal("φ argument from an unreachable predecessor reported exit-live")
	}
}

// TestLivenessEnginesAgreePhiHeavy cross-checks a merge carrying a wide
// φ prefix (every arm value flows through its own φ and stays live past
// the merge), the shape that stresses the φ-edge seeds and the parallel
// φ semantics.
func TestLivenessEnginesAgreePhiHeavy(t *testing.T) {
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

	crossCheckEngines(t, bld.Fn)
}

// TestRevalidateAfterCodeMutation exercises the incremental path: after
// a code-only mutation, Revalidate must keep the walks of untouched
// variables, drop the touched ones, and the revalidated Info must again
// agree with a fresh fixed point on everything.
func TestRevalidateAfterCodeMutation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := ssaRand(t, seed, testprog.DefaultRandOptions())
		q := liveness.NewQuery(f, cfg.Dominators(f))
		// Materialize every walk so kept/dropped counts are observable.
		for _, b := range f.Blocks() {
			q.LiveOutSet(b)
		}

		// Code-only mutation that actually moves a live range: copy a
		// value defined in the entry block at the top of the LAST block,
		// giving it a new upward-exposed use there (the shape of a
		// rematerialization or repair-copy pass). No CFG change.
		cfgGen := f.CFGGeneration()
		src := ir.NoValue
		for _, in := range f.Entry().Instrs() {
			if in.Op() != ir.Phi && in.NumDefs() > 0 && !f.IsPhys(in.Def(0)) {
				src = in.Def(0)
				break
			}
		}
		blocks := f.Blocks()
		last := blocks[len(blocks)-1]
		if src == ir.NoValue || last == f.Entry() {
			continue // degenerate shape; other seeds cover the property
		}
		dst := f.NewValue("reval.t")
		last.InsertAt(last.FirstNonPhi(), f.NewInstr(ir.Copy, ir.Ops(dst), ir.Ops(src)))
		if f.CFGGeneration() != cfgGen {
			t.Fatalf("seed %d: the copy insertion moved the CFG generation", seed)
		}

		q2, kept, dropped := q.Revalidate()
		if q2 == q {
			t.Fatalf("seed %d: Revalidate returned the same Info pointer", seed)
		}
		if dropped == 0 {
			t.Fatalf("seed %d: the copied variable's walk was not invalidated", seed)
		}
		if kept == 0 {
			t.Fatalf("seed %d: no walk survived a one-value mutation (kept=%d dropped=%d)", seed, kept, dropped)
		}

		it := liveness.Compute(f)
		for _, b := range f.Blocks() {
			if !q2.LiveInSet(b).Equal(it.LiveInSet(b)) ||
				!q2.LiveOutSet(b).Equal(it.LiveOutSet(b)) ||
				!q2.ExitLiveSet(b).Equal(it.ExitLiveSet(b)) {
				t.Fatalf("seed %d: revalidated Info diverges from fresh fixed point at %v", seed, b)
			}
		}
	}
}

// TestPipelineAgreesAcrossEngines runs the full Sφ+C pipeline (ssaopt,
// Sreedhar's CSSA conversion, +C) over random programs under both
// liveness engines, verify off and on, and requires identical final
// code and move counts — the end-to-end form of the agreement property
// (the verifier itself consumes liveness, so checked mode exercises
// extra query paths).
func TestPipelineAgreesAcrossEngines(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpSphiC)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		code  string
		moves int
	}
	run := func(seed int64, iterative, verify bool) outcome {
		defer liveness.SetIterativeOracle(iterative)()
		g := testprog.Rand(seed, testprog.DefaultRandOptions())
		c := conf
		c.Verify = verify
		res, err := pipeline.Run(g, c)
		if err != nil {
			t.Fatalf("seed %d iterative %v verify %v: %v", seed, iterative, verify, err)
		}
		return outcome{code: g.String(), moves: res.Moves}
	}
	for seed := int64(0); seed < 10; seed++ {
		want := run(seed, true, false)
		for _, iterative := range []bool{true, false} {
			for _, verify := range []bool{false, true} {
				if got := run(seed, iterative, verify); got != want {
					t.Fatalf("seed %d: pipeline output diverges (iterative %v, verify %v): moves %d vs %d",
						seed, iterative, verify, got.moves, want.moves)
				}
			}
		}
	}
}

// TestTablesUnderIterativeOracle renders Tables 2–5 with every
// analysis.Liveness cache miss solved by the iterative fixed point and
// requires the committed rendering byte for byte: the whole paper
// workload must come out of the reference engine exactly as it comes
// out of the query engine. stats builds fresh suites per call, so no
// Info built by the query engine is served from the cache. It must not
// run in parallel with other tests of the package.
func TestTablesUnderIterativeOracle(t *testing.T) {
	want, err := os.ReadFile("../stats/testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer liveness.SetIterativeOracle(true)()
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
		t.Errorf("tables under the iterative oracle differ from stats/testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// fuzzEngineOptions maps the fuzzed size to generator knobs, mirroring
// the interference engine fuzzer so crashers transfer between corpora.
func fuzzEngineOptions(size int64) testprog.RandOptions {
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

// FuzzLivenessEngines fuzzes the query engine against the iterative
// oracle, on both the pre-SSA and the pinned-SSA form of each random
// function.
func FuzzLivenessEngines(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzEngineOptions(size)
		crossCheckEngines(t, testprog.Rand(seed, opt))
		crossCheckEngines(t, ssaRand(t, seed, opt))
	})
}
