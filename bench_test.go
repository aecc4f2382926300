// Benchmarks regenerating the paper's evaluation (Tables 2-5) and
// measuring the compile-time cost of the passes — including the paper's
// compile-time argument: coalescing at SSA level is cheaper than feeding
// thousands of naive moves to a repeated register coalescer, and the
// optimistic interference variant trades a few moves for analysis speed.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/<suite> iteration runs every experiment of that
// table over the whole suite; the resulting move counts are reported as
// custom metrics (moves/<experiment>), so `-bench Table` regenerates the
// paper's numbers while timing them.
package outofssa_test

import (
	"fmt"
	"runtime"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
	"outofssa/internal/regalloc"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/workload"
)

var suiteBuilders = map[string]func() *workload.Suite{
	"VALcc1":     workload.VALcc1,
	"VALcc2":     workload.VALcc2,
	"example1-8": workload.Examples,
	"LAI_Large":  workload.LAILarge,
	"SPECint":    workload.SPECint,
}

var suiteOrder = []string{"VALcc1", "VALcc2", "example1-8", "LAI_Large", "SPECint"}

// runTable executes the experiments over the suite once and returns
// total moves per experiment.
func runTable(b *testing.B, build func() *workload.Suite, exps []string, weighted bool) map[string]int64 {
	b.Helper()
	out := make(map[string]int64)
	for _, e := range exps {
		s := build()
		var total int64
		for _, f := range s.Funcs {
			r, err := pipeline.Run(f, pipeline.Configs[e])
			if err != nil {
				b.Fatalf("%s/%s: %v", s.Name, e, err)
			}
			if weighted {
				total += r.WeightedMoves
			} else {
				total += int64(r.Moves)
			}
		}
		out[e] = total
	}
	return out
}

func benchTable(b *testing.B, exps []string, weighted bool) {
	for _, name := range suiteOrder {
		build := suiteBuilders[name]
		b.Run(name, func(b *testing.B) {
			var last map[string]int64
			for i := 0; i < b.N; i++ {
				last = runTable(b, build, exps, weighted)
			}
			for _, e := range exps {
				b.ReportMetric(float64(last[e]), "moves/"+e)
			}
		})
	}
}

// BenchmarkAllTables regenerates Tables 2-5 through the parallel batch
// driver (stats.Parallel -> pipeline.RunBatch) at increasing worker
// counts. The output is identical at every setting — the series
// measures pure wall-clock scaling of the driver; BENCH_parallel.json
// records a committed run of it.
func BenchmarkAllTables(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			prev := stats.Parallel
			stats.Parallel = workers
			defer func() { stats.Parallel = prev }()
			for i := 0; i < b.N; i++ {
				if _, err := stats.AllTables(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates "move instruction count with no ABI
// constraint": Lφ+C vs C vs Sφ+C.
func BenchmarkTable2(b *testing.B) {
	benchTable(b, []string{pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC}, false)
}

// BenchmarkTable3 regenerates "move instruction count with renaming
// constraints": Lφ,ABI+C vs Sφ+LABI+C vs LABI+C vs C.
func BenchmarkTable3(b *testing.B) {
	benchTable(b, []string{pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC,
		pipeline.ExpLABIC, pipeline.ExpC3}, false)
}

// BenchmarkTable4 regenerates the order-of-magnitude table (no
// aggressive coalescing post-pass).
func BenchmarkTable4(b *testing.B) {
	benchTable(b, []string{pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI}, false)
}

// BenchmarkTable5 regenerates the weighted variant comparison: base,
// depth, optimistic, pessimistic.
func BenchmarkTable5(b *testing.B) {
	variants := []struct {
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	}
	for _, name := range suiteOrder {
		build := suiteBuilders[name]
		b.Run(name, func(b *testing.B) {
			last := make(map[string]int64)
			for i := 0; i < b.N; i++ {
				for _, v := range variants {
					conf := pipeline.Configs[pipeline.ExpLphiABIC]
					conf.Coalesce = v.opt
					s := build()
					var total int64
					for _, f := range s.Funcs {
						r, err := pipeline.Run(f, conf)
						if err != nil {
							b.Fatal(err)
						}
						total += r.WeightedMoves
					}
					last[v.name] = total
				}
			}
			for _, v := range variants {
				b.ReportMetric(float64(last[v.name]), "wmoves/"+v.name)
			}
		})
	}
}

// ---- pass-level performance benchmarks ----

// ssaSuite builds a suite and converts every function to pinned SSA,
// ready for destruction benchmarks.
func ssaSuite(b *testing.B, name string, abi bool) []*ir.Func {
	b.Helper()
	s := suiteBuilders[name]()
	for _, f := range s.Funcs {
		info := ssa.MustBuild(f)
		pin.CollectSP(f, info)
		if abi {
			pin.CollectABI(f)
		}
	}
	return s.Funcs
}

func BenchmarkSSABuild(b *testing.B) {
	for _, name := range []string{"VALcc1", "LAI_Large", "SPECint"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := suiteBuilders[name]()
				for _, f := range s.Funcs {
					ssa.Build(f)
				}
			}
		})
	}
}

func BenchmarkLeungTranslate(b *testing.B) {
	for _, name := range []string{"VALcc1", "LAI_Large", "SPECint"} {
		b.Run(name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				funcs := ssaSuite(b, name, true)
				b.StartTimer()
				for _, f := range funcs {
					if _, err := leung.Translate(f); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			}
		})
	}
}

func BenchmarkProgramPinning(b *testing.B) {
	for _, name := range []string{"VALcc1", "LAI_Large", "SPECint"} {
		b.Run(name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				funcs := ssaSuite(b, name, true)
				b.StartTimer()
				for _, f := range funcs {
					if _, err := coalesce.ProgramPinning(f, coalesce.Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			}
		})
	}
}

// BenchmarkCoalescingWork compares the paper's compile-time argument
// [CC3]: the number of moves the post-pass coalescer must chew through
// with and without SSA-level handling (its cost is proportional to the
// move count).
func BenchmarkCoalescingWork(b *testing.B) {
	for _, name := range []string{"VALcc1", "SPECint"} {
		b.Run(name+"/afterPinned", func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				funcs := ssaSuite(b, name, true)
				moves := 0
				for _, f := range funcs {
					if _, err := coalesce.ProgramPinning(f, coalesce.Options{}); err != nil {
						b.Fatal(err)
					}
					if _, err := leung.Translate(f); err != nil {
						b.Fatal(err)
					}
					moves += f.CountMoves()
				}
				b.StartTimer()
				for _, f := range funcs {
					regalloc.AggressiveCoalesce(f)
				}
				b.StopTimer()
				b.ReportMetric(float64(moves), "moves-in")
			}
		})
		b.Run(name+"/afterNaive", func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				s := suiteBuilders[name]()
				moves := 0
				for _, f := range s.Funcs {
					if _, err := pipeline.Run(f, pipeline.Config{NaiveOut: true, NaiveABI: true}); err != nil {
						b.Fatal(err)
					}
					moves += f.CountMoves()
				}
				b.StartTimer()
				for _, f := range s.Funcs {
					regalloc.AggressiveCoalesce(f)
				}
				b.StopTimer()
				b.ReportMetric(float64(moves), "moves-in")
			}
		})
	}
}

// BenchmarkAblations compares the full paper pipeline against the
// extension variants: the [LIM2] definition pre-pinning pass and the
// ψ-SSA if-conversion path (§5). Reported metrics are final move counts.
func BenchmarkAblations(b *testing.B) {
	exps := []string{pipeline.ExpLphiABIC, pipeline.ExpPrePin, pipeline.ExpPsi}
	for _, name := range []string{"VALcc1", "VALcc2", "LAI_Large"} {
		build := suiteBuilders[name]
		b.Run(name, func(b *testing.B) {
			var last map[string]int64
			for i := 0; i < b.N; i++ {
				last = runTable(b, build, exps, false)
			}
			for _, e := range exps {
				b.ReportMetric(float64(last[e]), "moves/"+e)
			}
		})
	}
}

// BenchmarkPrePinWork measures the compile-time effect of the [LIM2]
// pre-pass: the number of moves entering the "+C" coalescer with and
// without it (Table-4 style, no post-pass).
func BenchmarkPrePinWork(b *testing.B) {
	confs := map[string]pipeline.Config{
		"without": {Optimize: true, ABI: true, PhiCoalesce: true},
		"with":    {Optimize: true, ABI: true, PrePin: true, PhiCoalesce: true},
	}
	for _, which := range []string{"without", "with"} {
		b.Run(which, func(b *testing.B) {
			var moves int64
			for i := 0; i < b.N; i++ {
				moves = 0
				for _, name := range []string{"VALcc1", "VALcc2"} {
					s := suiteBuilders[name]()
					for _, f := range s.Funcs {
						r, err := pipeline.Run(f, confs[which])
						if err != nil {
							b.Fatal(err)
						}
						moves += int64(r.Moves)
					}
				}
			}
			b.ReportMetric(float64(moves), "moves-pre-C")
		})
	}
}

// BenchmarkRegisterPressure measures the [LIM4] interplay: spills and
// colors needed by the graph-coloring allocator (12-register pool) on
// code produced with SSA-level coalescing versus the naive composition.
func BenchmarkRegisterPressure(b *testing.B) {
	confs := []struct {
		name string
		conf pipeline.Config
	}{
		{"pinned", pipeline.Configs[pipeline.ExpLphiABIC]},
		{"naive", pipeline.Configs[pipeline.ExpC3]},
	}
	for _, c := range confs {
		b.Run(c.name, func(b *testing.B) {
			var spills, colors int
			for i := 0; i < b.N; i++ {
				spills, colors = 0, 0
				for _, sn := range []string{"VALcc1", "VALcc2"} {
					s := suiteBuilders[sn]()
					for _, f := range s.Funcs {
						if _, err := pipeline.Run(f, c.conf); err != nil {
							b.Fatal(err)
						}
						st, err := regalloc.AllocateLimited(f, 12)
						if err != nil {
							b.Fatal(err)
						}
						spills += st.Spills
						if st.ColorsUsed > colors {
							colors = st.ColorsUsed
						}
					}
				}
			}
			b.ReportMetric(float64(spills), "spills")
			b.ReportMetric(float64(colors), "max-colors")
		})
	}
}

// BenchmarkInterferenceModes measures the analysis-cost side of the
// Table 5 ablation: exact per-point liveness versus the optimistic and
// pessimistic block-level approximations (Algorithm 4).
func BenchmarkInterferenceModes(b *testing.B) {
	for _, mode := range []interference.Mode{
		interference.Exact, interference.Optimistic, interference.Pessimistic,
	} {
		b.Run(fmt.Sprint(mode), func(b *testing.B) {
			b.StopTimer()
			funcs := ssaSuite(b, "SPECint", true)
			type prep struct {
				f    *ir.Func
				an   *interference.Analysis
				vals []ir.ValueID
			}
			var ps []prep
			for _, f := range funcs {
				live := liveness.Compute(f)
				an := interference.New(f, live, cfg.Dominators(f), mode)
				var vals []ir.ValueID
				for id := 0; id < f.NumValues(); id++ {
					if v := ir.ValueID(id); !f.IsPhys(v) {
						vals = append(vals, v)
					}
				}
				ps = append(ps, prep{f, an, vals})
			}
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				kills := 0
				for _, p := range ps {
					step := len(p.vals)/64 + 1
					for x := 0; x < len(p.vals); x += step {
						for y := 0; y < len(p.vals); y += step {
							if p.an.Kills(p.vals[x], p.vals[y]) {
								kills++
							}
						}
					}
				}
				if kills < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// ---- SoA arena benchmarks (DESIGN.md §12) ----

// sinkFunc keeps the cloned function observable so the compiler cannot
// elide the Clone call.
var sinkFunc *ir.Func

// BenchmarkClone measures ir.Func.Clone over the pinned-SSA suites.
// With the SoA arenas a clone is a handful of slab memcpys; allocs/op
// stays O(arena chunks) per function (pinned by ir.TestCloneAllocs),
// independent of instruction count.
func BenchmarkClone(b *testing.B) {
	for _, name := range []string{"VALcc1", "LAI_Large", "SPECint"} {
		b.Run(name, func(b *testing.B) {
			funcs := ssaSuite(b, name, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					sinkFunc = f.Clone()
				}
			}
		})
	}
}

// BenchmarkSnapshot measures ir.Func.Snapshot over the same suites as
// BenchmarkClone. A snapshot copies only the chunk spines up front and
// defers every slab copy until a mutation faults it, so allocs/op sits
// strictly below Clone's and ns/op below a clone of the same function —
// the per-job saving the batch driver banks for read-heavy work.
func BenchmarkSnapshot(b *testing.B) {
	for _, name := range []string{"VALcc1", "LAI_Large", "SPECint"} {
		b.Run(name, func(b *testing.B) {
			funcs := ssaSuite(b, name, true)
			for _, f := range funcs {
				f.Freeze()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					sinkFunc = f.Snapshot()
					sinkFunc.Release()
				}
			}
		})
	}
}

// BenchmarkGCScanIR measures the garbage collector's cost of a resident
// population of IR functions: it parks a few hundred clones on the heap
// and times full GC cycles over them. The SoA layout keeps values,
// operands and code in flat slabs whose only pointers are value names
// and chunk back-references, so scan work tracks the chunk count rather
// than the instruction count — the GC-pressure half of the re-platform
// argument alongside BenchmarkClone's alloc count.
func BenchmarkGCScanIR(b *testing.B) {
	funcs := ssaSuite(b, "SPECint", true)
	resident := make([]*ir.Func, 0, 256)
	for len(resident) < 256 {
		for _, f := range funcs {
			resident = append(resident, f.Clone())
		}
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(resident)
}
