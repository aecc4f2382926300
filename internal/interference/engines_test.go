package interference_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
)

// crossCheckEngines checks the dominance engine against the pairwise
// oracle over one function, pins and mode. Both engines must give
// bit-for-bit identical Resource_killed marks and Resource_interfere
// verdicts on the initial classes. Then, for each engine, a round of
// φ-affinity merges — the unions the coalescer's residual sweep would
// perform — runs through Merge: after every merge, the marks the graph
// carried across it must equal those of a fresh pairwise graph, and
// Merge must have refused exactly the merges the oracle said interfere.
// The engines must agree again on the grown classes.
func crossCheckEngines(t *testing.T, f *ir.Func, mode interference.Mode) {
	t.Helper()
	cfg.SplitCriticalEdges(f)
	live := liveness.Compute(f)
	dom := cfg.Dominators(f)
	an := interference.New(f, live, dom, mode)
	newResources := func() *pin.Resources {
		res, err := pin.NewResources(f)
		if err != nil {
			t.Fatalf("NewResources: %v", err)
		}
		return res
	}
	graph := func(res *pin.Resources, engine string) *interference.ResourceGraph {
		defer interference.SetPairwiseOracle(engine == "pairwise")()
		return interference.NewResourceGraph(an, res)
	}
	sameKilled := func(stage, engine string, g, oracle *interference.ResourceGraph) {
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if got, want := g.IsKilled(v), oracle.IsKilled(v); got != want {
				t.Fatalf("%s: %s: %v in Resource_killed: %s=%v pairwise=%v",
					stage, f.Name, f.VStr(v), engine, got, want)
			}
		}
	}
	agree := func(stage string, res *pin.Resources) {
		gD, gP := graph(res, "dominance"), graph(res, "pairwise")
		sameKilled(stage, "dominance", gD, gP)
		seen := make(map[ir.ValueID]bool)
		var rs []ir.ValueID
		for id := 0; id < f.NumValues(); id++ {
			if r := res.Find(ir.ValueID(id)); !seen[r] {
				seen[r] = true
				rs = append(rs, r)
			}
		}
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				vd := gD.Interfere(rs[i], rs[j])
				vp := gP.Interfere(rs[i], rs[j])
				if vd != vp {
					t.Fatalf("%s: %s: Resource_interfere(%v, %v): dominance=%v pairwise=%v",
						stage, f.Name, rs[i], rs[j], vd, vp)
				}
			}
		}
	}

	agree("initial", newResources())
	for _, engine := range []string{"dominance", "pairwise"} {
		res := newResources()
		g := graph(res, engine)
		for _, b := range f.Blocks() {
			for _, phi := range b.Phis() {
				for _, u := range phi.Uses() {
					a, x := res.Find(u.Val), res.Find(phi.Def(0))
					if a == x {
						continue
					}
					interferes := graph(res, "pairwise").Interfere(a, x)
					if merged := g.Merge(a, x); merged == interferes {
						t.Fatalf("%s merge: %s: Merge(%v, %v)=%v but pairwise Resource_interfere=%v",
							engine, f.Name, f.VStr(a), f.VStr(x), merged, interferes)
					}
					if !interferes {
						sameKilled(fmt.Sprintf("%s merge %v+%v", engine, f.VStr(a), f.VStr(x)),
							engine, g, graph(res, "pairwise"))
					}
				}
			}
		}
		agree(fmt.Sprintf("after %s merges", engine), res)
	}
}

// pinnedRand generates a random structured program, converts it to SSA
// and applies the real pin-collect phases (SP ties, ABI slots), so the
// classes and pin sites the engines see match the production pipeline.
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
// pinned-SSA functions, for all three modes, the dominance sweep and the
// pairwise oracle must agree exactly.
func TestEnginesAgreeOnRandomFunctions(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				crossCheckEngines(t, pinnedRand(t, seed, testprog.DefaultRandOptions()), mode)
			}
		})
	}
}

// TestEnginesAgreeOnSuites cross-checks on the deterministic test
// programs, which carry hand-built corner cases (lost copy, swap).
func TestEnginesAgreeOnSuites(t *testing.T) {
	builders := []func() *ir.Func{
		testprog.Diamond, testprog.Loop, testprog.SwapLoop, testprog.NestedLoops,
	}
	for _, mode := range allModes {
		for i, mk := range builders {
			f := mk()
			if _, err := ssa.Build(f); err != nil {
				t.Fatalf("builder %d: %v", i, err)
			}
			crossCheckEngines(t, f, mode)
		}
	}
}

// TestTablesUnderPairwiseOracle renders Tables 2–5 with every
// ResourceGraph answering pairwise and requires the committed rendering
// byte for byte: the whole paper workload, in all three interference
// modes (Table 5 runs the optimistic and pessimistic ones), must come
// out of the O(k²) reference exactly as it comes out of the dominance
// sweep. It must not run in parallel with other tests of the package.
func TestTablesUnderPairwiseOracle(t *testing.T) {
	want, err := os.ReadFile("../stats/testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer interference.SetPairwiseOracle(true)()
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
		t.Errorf("tables under the pairwise oracle differ from stats/testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// fuzzEngineOptions maps the fuzzed size to generator knobs, mirroring
// the pipeline differential fuzzer so crashers transfer between the two
// corpora.
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

// FuzzInterferenceEngines fuzzes the dominance engine against the
// pairwise oracle over random functions and all three modes.
func FuzzInterferenceEngines(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzEngineOptions(size)
		for _, mode := range allModes {
			fn := pinnedRand(t, seed, opt)
			fn.Name = fmt.Sprintf("%s-%s", fn.Name, mode)
			crossCheckEngines(t, fn, mode)
		}
	})
}
