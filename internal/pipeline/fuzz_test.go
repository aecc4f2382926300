package pipeline_test

import (
	"errors"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// fuzzOptions derives generator knobs from the fuzzed size parameter,
// clamped so every generated program stays interpretable within the
// step budget, and picks the loop shape: bottom-tested loops have the
// critical back edges where a φ can kill its own result. The mapping is
// deterministic: a crasher reproduces from its two integers alone.
func fuzzOptions(size int64) testprog.RandOptions {
	if size < 0 {
		size = -size
	}
	return testprog.RandOptions{
		MaxDepth: 1 + int(size%3),
		// The generator draws up to three parameters from the variable
		// pool, so Vars must never go below 3.
		Vars:              3 + int((size/3)%5),
		StmtsPerBlock:     1 + int((size/18)%5),
		Calls:             size%2 == 0,
		Stack:             (size/2)%2 == 0,
		BottomTestedLoops: (size/4)%2 == 1,
	}
}

// FuzzPipelineDifferential drives randomly generated programs through
// every experiment configuration in checked mode and differentially
// compares observable behaviour (ir.Exec) before and after: the
// pipeline as its own oracle. Any verifier violation, pass panic, or
// semantic divergence on any configuration is a finding, and so is a
// killed mark of Leung's mark phase that differs from the
// ResourceGraph's, or a decision of Program_pinning's row table that
// differs from the ResourceGraph oracle's (both checked at the input
// of their pass through the fault hook). Then
// every configuration runs once more, all as the columns of one
// shared-prefix Plan, and each column's moves and printed IR must
// equal its flat run.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzPipelineDifferential ./internal/pipeline/
func FuzzPipelineDifferential(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))

	argSets := [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {17, 5, 1}}

	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzOptions(size)
		ref := testprog.Rand(seed, opt)
		// Reference runs: a budget overrun means "no verdict" for that
		// argument set (nil slot), not a failure.
		wants := make([]*ir.ExecResult, len(argSets))
		any := false
		for i, args := range argSets {
			w, err := ir.Exec(ref, args, 500000)
			if errors.Is(err, ir.ErrStepBudget) {
				continue
			}
			if err != nil {
				t.Fatalf("ref seed=%d size=%d: %v", seed, size, err)
			}
			wants[i] = w
			any = true
		}
		if !any {
			t.Skip("reference exceeds the step budget on every argument set")
		}

		names := expNames()
		cols := make([]pipeline.Column, len(names))
		flatMoves, flatIR := make([]int, len(names)), make([]string, len(names))
		for ci, name := range names {
			g := testprog.Rand(seed, opt)
			conf := pipeline.Configs[name]
			conf.Verify = true
			cols[ci] = pipeline.Column{Config: conf, Experiment: name}
			var mismatch string
			conf.FaultHook = atPassInputs(func(pass string, f *ir.Func) {
				var m string
				switch pass {
				case "out-of-pinned-ssa":
					m, _ = killMarksMismatch(f)
				case "pinning-phi":
					m = pinningMismatch(f, conf.Coalesce)
				}
				if mismatch == "" {
					mismatch = m
				}
			})
			res, err := pipeline.Run(g, conf)
			if mismatch != "" {
				t.Fatalf("seed=%d size=%d config=%s: %s", seed, size, name, mismatch)
			}
			if err != nil {
				t.Fatalf("seed=%d size=%d config=%s: %v", seed, size, name, err)
			}
			flatMoves[ci], flatIR[ci] = res.Moves, g.String()
			for _, b := range g.Blocks() {
				for _, in := range b.Instrs() {
					if in.Op() == ir.Phi || in.Op() == ir.ParCopy {
						t.Fatalf("seed=%d size=%d config=%s: %v survived", seed, size, name, in.Op())
					}
				}
			}
			for i, args := range argSets {
				if wants[i] == nil {
					continue
				}
				got, err := ir.Exec(g, args, 1000000)
				if err != nil {
					t.Fatalf("seed=%d size=%d config=%s args=%v: %v", seed, size, name, args, err)
				}
				if !wants[i].Equal(got) {
					t.Fatalf("seed=%d size=%d config=%s args=%v: behaviour diverged\nwant %+v\ngot  %+v",
						seed, size, name, args, wants[i], got)
				}
			}
		}

		p, err := pipeline.NewPlan(cols...)
		if err != nil {
			t.Fatal(err)
		}
		planIR := make([]string, len(cols))
		res, err := pipeline.RunPlan(testprog.Rand(seed, opt), p,
			func(col int, g *ir.Func) { planIR[col] = g.String() })
		if err != nil {
			t.Fatalf("seed=%d size=%d plan: %v", seed, size, err)
		}
		for ci, name := range names {
			if res[ci].Moves != flatMoves[ci] {
				t.Fatalf("seed=%d size=%d config=%s: plan moves %d, flat %d", seed, size, name, res[ci].Moves, flatMoves[ci])
			}
			if planIR[ci] != flatIR[ci] {
				t.Fatalf("seed=%d size=%d config=%s: plan IR differs from flat:\n%s\nwant:\n%s", seed, size, name, planIR[ci], flatIR[ci])
			}
		}
	})
}
