package regalloc_test

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/outofssa/naive"
	"outofssa/internal/pipeline"
	"outofssa/internal/regalloc"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

func TestCoalesceRemovesChain(t *testing.T) {
	bld := ir.NewBuilder("chain")
	bld.Block("entry")
	a, b, c, d := bld.Val("a"), bld.Val("b"), bld.Val("c"), bld.Val("d")
	bld.Input(a)
	bld.Copy(b, a)
	bld.Copy(c, b)
	bld.Unary(ir.Neg, d, c)
	bld.Output(d)

	st := regalloc.AggressiveCoalesce(bld.Fn)
	if st.MovesRemoved != 2 {
		t.Fatalf("removed %d moves, want 2", st.MovesRemoved)
	}
	if bld.Fn.CountMoves() != 0 {
		t.Fatalf("moves remain:\n%s", bld.Fn)
	}
	res, err := ir.Exec(bld.Fn, []int64{5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != -5 {
		t.Fatalf("semantics broken: %v", res.Outputs)
	}
}

func TestCoalesceKeepsInterferingMove(t *testing.T) {
	bld := ir.NewBuilder("keep")
	bld.Block("entry")
	a, b, s := bld.Val("a"), bld.Val("b"), bld.Val("s")
	bld.Input(a)
	bld.Copy(b, a)              // b = a
	bld.Unary(ir.Neg, a, a)     // a redefined while b live
	bld.Binary(ir.Add, s, a, b) // both live here
	bld.Output(s)

	st := regalloc.AggressiveCoalesce(bld.Fn)
	if st.MovesRemoved != 0 {
		t.Fatalf("removed an interfering move:\n%s", bld.Fn)
	}
	res, err := ir.Exec(bld.Fn, []int64{7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 {
		t.Fatalf("want -7+7=0, got %v", res.Outputs)
	}
}

func TestCoalescePhysicalPreference(t *testing.T) {
	bld := ir.NewBuilder("phys")
	f := bld.Fn
	bld.Block("entry")
	a := bld.Val("a")
	bld.Input(a)
	r0 := f.Target.R[0]
	bld.Cur.Append(f.NewInstr(ir.Copy, ir.Ops(r0), ir.Ops(a)))
	bld.Cur.Append(f.NewInstr(ir.Output, nil, ir.Ops(r0)))

	regalloc.AggressiveCoalesce(f)
	if f.CountMoves() != 0 {
		t.Fatalf("R0 = a not coalesced:\n%s", f)
	}
	// a must have been renamed to R0, not the other way round.
	for _, in := range f.Entry().Instrs() {
		if in.Op() == ir.Input && in.Def(0) != r0 {
			t.Fatalf("virtual did not take the register name: %v", in)
		}
	}
}

func TestNeverMergesTwoPhysicals(t *testing.T) {
	bld := ir.NewBuilder("twophys")
	f := bld.Fn
	bld.Block("entry")
	r0, r1 := f.Target.R[0], f.Target.R[1]
	in := f.NewInstr(ir.Input, ir.Ops(r0), nil)
	in.Imm = 1
	bld.Cur.Append(in)
	bld.Cur.Append(f.NewInstr(ir.Copy, ir.Ops(r1), ir.Ops(r0)))
	bld.Cur.Append(f.NewInstr(ir.Output, nil, ir.Ops(r1)))
	st := regalloc.AggressiveCoalesce(f)
	if st.MovesRemoved != 0 {
		t.Fatal("merged two physical registers")
	}
}

func TestCoalesceAfterNaivePreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		ref := testprog.Rand(seed, testprog.DefaultRandOptions())
		args := []int64{seed, 3, 8}
		want, err := ir.Exec(ref, args, 500000)
		if err != nil {
			t.Fatal(err)
		}
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		if _, err := naive.Translate(f); err != nil {
			t.Fatal(err)
		}
		before := f.CountMoves()
		st := regalloc.AggressiveCoalesce(f)
		after := f.CountMoves()
		if before-after != st.MovesRemoved {
			t.Fatalf("seed %d: accounting: before=%d after=%d removed=%d",
				seed, before, after, st.MovesRemoved)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := ir.Exec(f, args, 1000000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !want.Equal(got) {
			t.Fatalf("seed %d: coalescing changed behaviour", seed)
		}
	}
}

// TestRepeatedRounds: a move chain that only becomes coalescable after a
// first merge requires the "repeated" rebuild.
func TestRepeatedRounds(t *testing.T) {
	for seed := int64(30); seed < 50; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		if _, err := naive.Translate(f); err != nil {
			t.Fatal(err)
		}
		st := regalloc.AggressiveCoalesce(f)
		if st.Rounds < 1 {
			t.Fatal("at least one round expected")
		}
		// Fixed point: a second run must find nothing.
		st2 := regalloc.AggressiveCoalesce(f)
		if st2.MovesRemoved != 0 {
			t.Fatalf("seed %d: not at fixed point: %d more removed", seed, st2.MovesRemoved)
		}
	}
}

// randOptions varies the generator's shape with the seed: nesting,
// variable count, block length, calls (ABI pins) and SP traffic.
func randOptions(seed int64) testprog.RandOptions {
	return testprog.RandOptions{
		MaxDepth:      int(1 + seed%3),
		Vars:          int(3 + (seed/3)%5),
		StmtsPerBlock: int(1 + (seed/15)%5),
		Calls:         seed%2 == 0,
		Stack:         (seed/2)%2 == 0,
	}
}

// TestCoalesceMatchesFullGraph holds the copy-operand rounds to the
// full interference graph over every value: on the output of every
// preset that ends in "+C", run with "+C" off, over the 228 suite
// functions and 400 random programs, both must print the same IR and
// report the same MovesRemoved and Rounds. It must not run in parallel
// with other tests of the package.
func TestCoalesceMatchesFullGraph(t *testing.T) {
	var confs []pipeline.Config
	var names []string
	for _, name := range pipeline.Presets() {
		conf, _ := pipeline.Preset(name)
		if conf.Chaitin {
			conf.Chaitin = false
			confs = append(confs, conf)
			names = append(names, name)
		}
	}
	if len(confs) != 9 {
		t.Fatalf("%d presets run +C, want 9", len(confs))
	}
	var funcs []*ir.Func
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		funcs = append(funcs, build().Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < 400; seed++ {
		funcs = append(funcs, testprog.Rand(seed, randOptions(seed)))
	}
	for _, src := range funcs {
		for i, conf := range confs {
			f := src.Clone()
			if _, err := pipeline.Run(f, conf); err != nil {
				t.Fatalf("%s under %s: %v", src.Name, names[i], err)
			}
			ref := f.Clone()
			got := regalloc.AggressiveCoalesce(f)
			restore := regalloc.SetFullGraphOracle(true)
			want := regalloc.AggressiveCoalesce(ref)
			restore()
			if *got != *want {
				t.Fatalf("%s under %s: stats %+v, full graph %+v", src.Name, names[i], *got, *want)
			}
			if g, w := f.String(), ref.String(); g != w {
				t.Fatalf("%s under %s: code differs from the full graph's\ngot:\n%s\nwant:\n%s", src.Name, names[i], g, w)
			}
		}
	}
}

// TestCoalesceUnreachableBlock: liveness leaves the exit set of an
// unreachable block empty, so its def of w does not interfere with v,
// which is live into the block's successor, and w = v merges under both
// coalescers.
func TestCoalesceUnreachableBlock(t *testing.T) {
	bld := ir.NewBuilder("unreachable")
	entry, dead, exit := bld.Block("entry"), bld.Block("dead"), bld.Block("exit")
	a, v, w := bld.Val("a"), bld.Val("v"), bld.Val("w")
	bld.SetBlock(entry)
	bld.Input(a)
	bld.Copy(v, a)
	bld.Jump(exit)
	bld.SetBlock(dead)
	bld.Const(w, 1)
	bld.Jump(exit)
	bld.SetBlock(exit)
	bld.Copy(w, v)
	bld.Output(w)

	ref := bld.Fn.Clone()
	got := regalloc.AggressiveCoalesce(bld.Fn)
	restore := regalloc.SetFullGraphOracle(true)
	want := regalloc.AggressiveCoalesce(ref)
	restore()
	if *got != *want || bld.Fn.String() != ref.String() {
		t.Fatalf("stats %+v, full graph %+v\ngot:\n%s\nwant:\n%s", *got, *want, bld.Fn, ref)
	}
	if got.MovesRemoved != 2 {
		t.Fatalf("removed %d moves, want 2:\n%s", got.MovesRemoved, bld.Fn)
	}
}

// TestTablesUnderFullGraphOracle renders Tables 2–5 with every "+C"
// round on the full interference graph and requires the committed
// rendering byte for byte. It must not run in parallel with other tests
// of the package.
func TestTablesUnderFullGraphOracle(t *testing.T) {
	want, err := os.ReadFile("../stats/testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer regalloc.SetFullGraphOracle(true)()
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
		t.Errorf("tables under the full-graph oracle differ from stats/testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// maxCoalesceAllocs bounds the allocations of one AggressiveCoalesce
// call: its buffers are sized once and reused by every round, so the
// count does not grow with the function's values, blocks or rounds.
const maxCoalesceAllocs = 24

// TestCoalesceAllocsBounded runs "+C" on a clone of every VALcc1,
// LAI_Large and SPECint function after LABI and requires each call to
// stay within maxCoalesceAllocs allocations.
func TestCoalesceAllocsBounded(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLABI)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	calls, total, worst := 0, uint64(0), uint64(0)
	for _, build := range []func() *workload.Suite{workload.VALcc1, workload.LAILarge, workload.SPECint} {
		for _, f := range build().Funcs {
			if _, err := pipeline.Run(f, conf); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			g := f.Clone()
			runtime.ReadMemStats(&before)
			st := regalloc.AggressiveCoalesce(g)
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			if n > maxCoalesceAllocs {
				t.Errorf("%s (%d values, %d rounds): %d allocations, want at most %d",
					f.Name, g.NumValues(), st.Rounds, n, maxCoalesceAllocs)
			}
			calls, total, worst = calls+1, total+n, max(worst, n)
		}
	}
	t.Logf("%d calls: %.1f allocations on average, at most %d", calls, float64(total)/float64(calls), worst)
}
