package coalesce_test

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// TestTablesUnderPinningOracle renders Tables 2–5 with every
// ProgramPinning and PrePinDefs answering from the ResourceGraph oracle
// instead of the row table (SetPinningOracle) and requires the
// committed rendering byte for byte. It must not run in parallel with
// other tests of the package.
func TestTablesUnderPinningOracle(t *testing.T) {
	want, err := os.ReadFile("../stats/testdata/tables_2_5.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer coalesce.SetPinningOracle(true)()
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
		t.Errorf("tables under the pinning oracle differ from stats/testdata/tables_2_5.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// suiteAndRandom returns the 228 suite functions and n random programs,
// every other one with bottom-tested loops.
func suiteAndRandom(t *testing.T, n int) []*ir.Func {
	t.Helper()
	var funcs []*ir.Func
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		funcs = append(funcs, build().Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < int64(n); seed++ {
		opt := testprog.DefaultRandOptions()
		opt.BottomTestedLoops = seed%2 == 1
		funcs = append(funcs, testprog.Rand(seed, opt))
	}
	return funcs
}

// atInputOf returns a fault hook that hands check a copy of the
// function as the named pass received it.
func atInputOf(name string, check func(f *ir.Func)) func(string, *ir.Func) {
	var prev *ir.Func
	return func(pass string, f *ir.Func) {
		if pass == name && prev != nil {
			check(prev)
		}
		prev = f.Clone()
	}
}

// TestPrePinDecisionsMatchOracle runs the two presets that pre-pin
// definitions over the 228 suite functions and 300 random programs in
// both loop shapes with every pinning phase asking both the row table
// and the oracle (SetPinningTwin), and at each pre-pin pass replays
// PrePinDefs on the pass's input in all three modes the same way: every
// IsKilled, Interfere and Merge answer must agree. It must not run in
// parallel with other tests of the package.
func TestPrePinDecisionsMatchOracle(t *testing.T) {
	var mismatch string
	defer coalesce.SetPinningTwin(&mismatch)()
	runs := 0
	for _, name := range []string{pipeline.ExpPrePin, pipeline.ExpPsi} {
		for _, src := range suiteAndRandom(t, 300) {
			conf := pipeline.Configs[name]
			conf.FaultHook = atInputOf("pre-pin", func(f *ir.Func) {
				for _, mode := range []interference.Mode{interference.Exact, interference.Optimistic, interference.Pessimistic} {
					if _, err := coalesce.PrePinDefs(f.Clone(), mode); err != nil {
						t.Fatalf("%s: PrePinDefs(%v): %v", f.Name, mode, err)
					}
					runs++
				}
			})
			if _, err := pipeline.Run(src, conf); err != nil {
				t.Fatalf("%s under %s: %v", src.Name, name, err)
			}
			if mismatch != "" {
				t.Fatalf("under %s: %s", name, mismatch)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no pre-pin pass was checked")
	}
	t.Logf("%d replayed PrePinDefs runs agree with the oracle", runs)
}

// TestProgramPinningAllocsBounded: apart from the liveness and
// dominators it requests, each ProgramPinning call allocates a bounded
// number of times, whatever the number of its φs and merges: its tables
// are sized once per call, the affinity graph is reused across blocks,
// and only the class lists' slab and the graph's lists grow, by
// doubling. It measures every suite function as Lphi,ABI's pinning-phi
// pass receives it, with critical edges split and both analyses
// requested first, so the call finds them memoized, and with the
// garbage collector off during the call, whose cycles can add the
// runtime's own allocations to the count.
func TestProgramPinningAllocsBounded(t *testing.T) {
	const bound = 32
	conf := pipeline.Configs[pipeline.ExpLphiABI]
	calls, worst := 0, uint64(0)
	for _, src := range suiteAndRandom(t, 0) {
		var g *ir.Func
		conf.FaultHook = atInputOf("pinning-phi", func(f *ir.Func) { g = f })
		if _, err := pipeline.Run(src, conf); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if g == nil {
			t.Fatalf("%s: no pinning-phi pass", src.Name)
		}
		cfg.SplitCriticalEdges(g)
		analysis.Dominators(g)
		analysis.Liveness(g)
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		st, err := coalesce.ProgramPinning(g, coalesce.Options{})
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		n := after.Mallocs - before.Mallocs
		if n > bound {
			t.Errorf("%s (%d values, %d φ slots, %d merges): %d allocations beyond its analyses, want at most %d",
				g.Name, g.NumValues(), st.PhiSlots, st.Merges, n, bound)
		}
		calls, worst = calls+1, max(worst, n)
	}
	t.Logf("%d calls, at most %d allocations per call", calls, worst)
}
