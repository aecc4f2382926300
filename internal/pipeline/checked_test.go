package pipeline_test

import (
	"errors"
	"strings"
	"testing"

	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// buildFaultSite returns a pre-SSA diamond whose merge block (after SSA
// construction) carries two φs followed by non-φ instructions — an
// injection site for every faultinject class.
func buildFaultSite() *ir.Func {
	bld := ir.NewBuilder("faultsite")
	entry := bld.Block("entry")
	left := bld.Fn.NewBlock("left")
	right := bld.Fn.NewBlock("right")
	merge := bld.Fn.NewBlock("merge")

	a, c, x, y, z, w, one := bld.Val("a"), bld.Val("c"), bld.Val("x"),
		bld.Val("y"), bld.Val("z"), bld.Val("w"), bld.Val("one")

	bld.SetBlock(entry)
	bld.Input(a)
	bld.Const(one, 1)
	bld.Binary(ir.CmpLT, c, a, one)
	bld.Br(c, left, right)

	bld.SetBlock(left)
	bld.Binary(ir.Add, x, a, one)
	bld.Binary(ir.Add, y, a, a)
	bld.Jump(merge)

	bld.SetBlock(right)
	bld.Const(x, 7)
	bld.Const(y, 9)
	bld.Jump(merge)

	bld.SetBlock(merge)
	bld.Binary(ir.Add, z, x, y)
	bld.Binary(ir.Mul, w, z, z)
	bld.Output(w)
	return bld.Fn
}

// TestCheckedModeIdenticalCodegen: enabling Verify must never change
// the generated code — the verifier only reads. Every named experiment
// configuration over structured and random programs must produce
// byte-identical IR and identical counters with and without checking.
func TestCheckedModeIdenticalCodegen(t *testing.T) {
	mks := []func() *ir.Func{
		testprog.Diamond, testprog.Loop, testprog.NestedLoops,
		testprog.SwapLoop, testprog.LostCopy, testprog.WithCallsAndStack,
	}
	for seed := int64(0); seed < 10; seed++ {
		s := seed
		mks = append(mks, func() *ir.Func {
			return testprog.Rand(s, testprog.DefaultRandOptions())
		})
	}
	for _, mk := range mks {
		for _, name := range expNames() {
			plain := mk()
			rp, err := pipeline.Run(plain, pipeline.Configs[name])
			if err != nil {
				t.Fatalf("%s/%s: %v", plain.Name, name, err)
			}
			checked := mk()
			conf := pipeline.Configs[name]
			conf.Verify = true
			rc, err := pipeline.Run(checked, conf)
			if err != nil {
				t.Fatalf("%s/%s checked: %v", checked.Name, name, err)
			}
			if plain.String() != checked.String() {
				t.Fatalf("%s/%s: checked mode changed the code:\n--- plain ---\n%s--- checked ---\n%s",
					plain.Name, name, plain, checked)
			}
			if rp.Moves != rc.Moves || rp.WeightedMoves != rc.WeightedMoves || rp.Instrs != rc.Instrs {
				t.Fatalf("%s/%s: checked mode changed counters: %d/%d/%d vs %d/%d/%d",
					plain.Name, name, rp.Moves, rp.WeightedMoves, rp.Instrs,
					rc.Moves, rc.WeightedMoves, rc.Instrs)
			}
		}
	}
}

// TestFaultsSurfaceAsPassError: every faultinject corruption smuggled
// in after a pass must abort the checked run with a *PassError naming
// exactly that pass, and the failing pass's trace event must carry the
// error.
func TestFaultsSurfaceAsPassError(t *testing.T) {
	const sabotaged = "pinning-sp"
	for _, class := range faultinject.Classes {
		t.Run(string(class), func(t *testing.T) {
			f := buildFaultSite()
			injected := false
			conf := pipeline.Config{
				ABI: true, PhiCoalesce: true,
				Verify: true,
				FaultHook: func(pass string, f *ir.Func) {
					if pass == sabotaged && !injected {
						injected = faultinject.Inject(f, class)
					}
				},
			}
			rec := &obs.Recorder{}
			_, err := pipeline.Run(f, conf, pipeline.WithExperiment("fault"), pipeline.WithTracer(rec))
			if !injected {
				t.Fatalf("no injection site for %s", class)
			}
			var pe *pipeline.PassError
			if !errors.As(err, &pe) {
				t.Fatalf("corruption after %s returned %v, want *PassError", sabotaged, err)
			}
			if pe.Pass != sabotaged {
				t.Fatalf("PassError blames %q, want %q (cause: %v)", pe.Pass, sabotaged, pe.Cause)
			}
			run := rec.Runs[len(rec.Runs)-1]
			last := run.Events[len(run.Events)-1]
			if last.Pass != sabotaged || last.Err == "" {
				t.Fatalf("failing pass not traced with Err: %+v", last)
			}
			if run.Ended {
				t.Fatal("RunEnd fired despite the fault")
			}
		})
	}
}

// TestFallbackRecoversFromFaults: with Fallback enabled, a pass-level
// fault must degrade gracefully — the pipeline still emits φ-free,
// parcopy-free code whose observable behaviour matches the pre-SSA
// program, and the Result records what happened.
func TestFallbackRecoversFromFaults(t *testing.T) {
	argSets := [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {17, 5, 1}}
	mks := []func() *ir.Func{
		buildFaultSite,
		testprog.Diamond, testprog.Loop, testprog.NestedLoops,
		testprog.SwapLoop, testprog.LostCopy, testprog.WithCallsAndStack,
	}
	for seed := int64(0); seed < 25; seed++ {
		s := seed
		mks = append(mks, func() *ir.Func {
			return testprog.Rand(s, testprog.DefaultRandOptions())
		})
	}
	for _, mk := range mks {
		ref := mk()
		var wants []*ir.ExecResult
		for _, args := range argSets {
			w, err := ir.Exec(ref, args, 500000)
			if err != nil {
				t.Fatalf("%s: ref: %v", ref.Name, err)
			}
			wants = append(wants, w)
		}

		f := mk()
		conf := pipeline.Configs[pipeline.ExpLphiABIC]
		conf.Verify = true
		conf.Fallback = true
		injected := false
		conf.FaultHook = func(pass string, g *ir.Func) {
			// DoubleDef applies to any program with a definition, so the
			// sabotage lands on every input in the suite.
			if pass == "pinning-sp" && !injected {
				injected = faultinject.Inject(g, faultinject.DoubleDef)
			}
		}
		res, err := pipeline.Run(f, conf)
		if err != nil {
			t.Fatalf("%s: fallback did not recover: %v", ref.Name, err)
		}
		if !injected {
			t.Fatalf("%s: no injection site", ref.Name)
		}
		if !res.FellBack {
			t.Fatalf("%s: fault not detected (FellBack false)", ref.Name)
		}
		var pe *pipeline.PassError
		if !errors.As(res.FallbackFrom, &pe) || pe.Pass != "pinning-sp" {
			t.Fatalf("%s: FallbackFrom = %v, want *PassError for pinning-sp", ref.Name, res.FallbackFrom)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("%s: fallback output invalid: %v", ref.Name, err)
		}
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Op() == ir.Phi || in.Op() == ir.ParCopy {
					t.Fatalf("%s: %v survived the fallback", ref.Name, in.Op())
				}
			}
		}
		for i, args := range argSets {
			got, err := ir.Exec(f, args, 1000000)
			if err != nil {
				t.Fatalf("%s args=%v: %v", ref.Name, args, err)
			}
			if !wants[i].Equal(got) {
				t.Fatalf("%s args=%v: fallback changed behaviour\nwant %+v\ngot  %+v",
					ref.Name, args, wants[i], got)
			}
		}
	}
}

// TestFallbackUnusedOnCleanRuns: Fallback must be pure insurance — on a
// healthy pipeline it never triggers and never changes the result.
func TestFallbackUnusedOnCleanRuns(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		plain := testprog.Rand(seed, testprog.DefaultRandOptions())
		rp, err := pipeline.Run(plain, pipeline.Configs[pipeline.ExpLphiABIC])
		if err != nil {
			t.Fatal(err)
		}
		guarded := testprog.Rand(seed, testprog.DefaultRandOptions())
		conf := pipeline.Configs[pipeline.ExpLphiABIC]
		conf.Verify = true
		conf.Fallback = true
		rg, err := pipeline.Run(guarded, conf)
		if err != nil {
			t.Fatal(err)
		}
		if rg.FellBack {
			t.Fatalf("seed %d: clean run fell back: %v", seed, rg.FallbackFrom)
		}
		if plain.String() != guarded.String() || rp.Moves != rg.Moves {
			t.Fatalf("seed %d: guarded run changed the code", seed)
		}
	}
}

// TestInvalidInputSkipsFallback: an entry-state failure is the
// caller's, so it comes back as an *InputError and the fallback does
// not retry it. A use pair pinned to one register (Fig. 4 case 2)
// fails the checked entry verification, reported against "<input>";
// a φ in a pre-SSA entry block fails SSA construction.
func TestInvalidInputSkipsFallback(t *testing.T) {
	conf := pipeline.Configs[pipeline.ExpLphiABIC]
	conf.Verify, conf.Fallback = true, true

	f, err := lai.Parse(".func badpins\n.input A:R0, B:R2\nentry:\n    add X^R1, A^R1, B^R1\n    ret X\n.endfunc\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(f, conf)
	var invalid *pipeline.InputError
	var pe *pipeline.PassError
	if !errors.As(err, &invalid) || !errors.As(err, &pe) || pe.Pass != "<input>" {
		t.Fatalf("bad pins: got %v, want an *InputError for pass <input>", err)
	}
	if strings.Contains(err.Error(), "fallback") {
		t.Fatalf("bad pins: the fallback retried an invalid input: %v", err)
	}

	bld := ir.NewBuilder("entryphi")
	a, p := bld.Val("a"), bld.Val("p")
	bld.Block("entry")
	bld.Input(a)
	bld.Phi(p, a)
	bld.Output(p)
	if _, err := pipeline.Run(bld.Fn, conf); !errors.As(err, &invalid) {
		t.Fatalf("entry φ: got %v, want an *InputError", err)
	}
}

// TestPinClashIsInputError: declared pins that clash with the pins the
// pinning passes add pass the entry check, so the passes themselves
// report the clash, as an *InputError naming the pass, in checked and
// unchecked mode alike. Checked mode used to fall back (feeding the
// pass's breaker class in laocd), unchecked mode to fail in
// out-of-pinned-ssa.
func TestPinClashIsInputError(t *testing.T) {
	for _, tc := range []struct{ src, pass string }{
		// The ABI puts parameter A in R0, which B declares.
		{".func abiclash\n.input A, B:R0\nentry:\n    add C, A, B\n    ret C\n.endfunc\n", "pinning-abi"},
		// SSA construction gives the undefined R0 an entry definition,
		// which pinning-sp pins to R0 beside A.
		{".func spclash\n.input A:R0\nentry:\n    mov X, R0\n    add C, A, X\n    ret C\n.endfunc\n", "pinning-sp"},
	} {
		for _, checked := range []bool{false, true} {
			f, err := lai.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			conf := pipeline.Configs[pipeline.ExpLphiABIC]
			conf.Verify, conf.Fallback = checked, checked
			_, err = pipeline.Run(f, conf)
			var invalid *pipeline.InputError
			var pe *pipeline.PassError
			if !errors.As(err, &invalid) || !errors.As(err, &pe) || pe.Pass != tc.pass ||
				!strings.Contains(err.Error(), "Fig.4 case 1") {
				t.Errorf("%s, checked=%v: got %v, want an *InputError for a Fig. 4 clash in %s", f.Name, checked, err, tc.pass)
			}
		}
	}
}
