package interference_test

import (
	"fmt"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// checkMerges holds a long-lived ResourceGraph to a freshly built one
// over one function, its pins and a mode. It runs the φ-affinity merges
// the coalescer's residual sweep would perform through Merge, and after
// each one requires the long-lived graph to answer as a fresh graph over
// the same classes does: Merge must have refused exactly the merges the
// fresh graph says interfere, every value's Resource_killed mark must
// match (Merge carries the merged class's marks without a recompute),
// and so must Resource_interfere of the merged class with every other
// class. Every pair of classes is compared before the first merge and
// after the last, so a verdict memoized early must survive the merges
// of other classes.
func checkMerges(t *testing.T, f *ir.Func, mode interference.Mode) {
	t.Helper()
	cfg.SplitCriticalEdges(f)
	an := interference.New(f, liveness.Compute(f), cfg.Dominators(f), mode)
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	g := interference.NewResourceGraph(an, res)
	// same compares the graphs; with root == ir.NoValue it compares
	// every pair of classes, otherwise the pairs holding root's class.
	same := func(stage string, root ir.ValueID) {
		fresh := interference.NewResourceGraph(an, res)
		var roots []ir.ValueID
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if got, want := g.IsKilled(v), fresh.IsKilled(v); got != want {
				t.Fatalf("%s: %s: %v in Resource_killed: long-lived graph %v, fresh graph %v",
					stage, f.Name, f.VStr(v), got, want)
			}
			if res.Find(v) == v {
				roots = append(roots, v)
			}
		}
		for i, a := range roots {
			for _, b := range roots[i+1:] {
				if root != ir.NoValue && a != root && b != root {
					continue
				}
				if got, want := g.Interfere(a, b), fresh.Interfere(a, b); got != want {
					t.Fatalf("%s: %s: Resource_interfere(%v, %v): long-lived graph %v, fresh graph %v",
						stage, f.Name, f.VStr(a), f.VStr(b), got, want)
				}
			}
		}
	}

	same("initial", ir.NoValue)
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				a, x := res.Find(u.Val), res.Find(phi.Def(0))
				if a == x {
					continue
				}
				interferes := interference.NewResourceGraph(an, res).Interfere(a, x)
				if merged := g.Merge(a, x); merged == interferes {
					t.Fatalf("%s: Merge(%v, %v) = %v but a fresh graph's Resource_interfere = %v",
						f.Name, f.VStr(a), f.VStr(x), merged, interferes)
				}
				if !interferes {
					same(fmt.Sprintf("merge %v+%v", f.VStr(a), f.VStr(x)), res.Find(a))
				}
			}
		}
	}
	same("after the merges", ir.NoValue)
}

// pinnedRand generates a random structured program, converts it to SSA
// and applies the real pin-collect phases (SP ties, ABI slots), so the
// classes and pin sites the graph sees match the production pipeline.
func pinnedRand(t *testing.T, seed int64, opt testprog.RandOptions) *ir.Func {
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

var allModes = []interference.Mode{interference.Exact, interference.Optimistic, interference.Pessimistic}

// TestEnginesAgreeOnRandomFunctions is the property test: over random
// pinned-SSA functions, in all three modes, the two ways a ResourceGraph
// reaches its verdicts must agree: incrementally, through Merge, its
// carried killed marks and its memo, and from scratch, in a graph built
// fresh over the merged classes (checkMerges).
func TestEnginesAgreeOnRandomFunctions(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				checkMerges(t, pinnedRand(t, seed, testprog.DefaultRandOptions()), mode)
			}
		})
	}
}

// TestEnginesAgreeOnSuites makes the same check on the deterministic
// test programs, which carry hand-built corner cases (lost copy, swap).
func TestEnginesAgreeOnSuites(t *testing.T) {
	for _, mode := range allModes {
		for _, f := range testprog.All() {
			ssa.MustBuild(f)
			checkMerges(t, f, mode)
		}
	}
}

// fuzzOptions maps the fuzzed size to generator knobs, mirroring the
// pipeline differential fuzzer so crashers transfer between the two
// corpora.
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

// FuzzMergeMatchesFreshGraph fuzzes merging ResourceGraphs against
// freshly built ones over random functions and all three modes.
func FuzzMergeMatchesFreshGraph(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzOptions(size)
		for _, mode := range allModes {
			fn := pinnedRand(t, seed, opt)
			fn.Name = fmt.Sprintf("%s-%s", fn.Name, mode)
			checkMerges(t, fn, mode)
		}
	})
}
