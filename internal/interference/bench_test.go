package interference_test

import (
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/workload"
)

// benchSuites are the suites the benchmarks run on: small functions,
// the largest functions, and the ABI-heavy set.
var benchSuites = []struct {
	name  string
	build func() *workload.Suite
}{
	{"VALcc1", workload.VALcc1},
	{"LAI_Large", workload.LAILarge},
	{"SPECint", workload.SPECint},
}

// pinnedSuite builds a suite and converts every function to pinned SSA
// (SP ties and ABI slots), the IR the interference queries see.
func pinnedSuite(build func() *workload.Suite) []*ir.Func {
	s := build()
	for _, f := range s.Funcs {
		info := ssa.MustBuild(f)
		pin.CollectSP(f, info)
		pin.CollectABI(f)
	}
	return s.Funcs
}

// BenchmarkInterferenceQueries isolates the resource-level lifting on
// the raw Resource_killed / Resource_interfere workload: for every
// function of the suite, a fresh ResourceGraph (empty memos) answers
// IsKilled for every value (one Resource_killed computation per class)
// plus Interfere over a root-pair sample. This is the hot path
// Program_pinning and the Leung mark phase sit on;
// BENCH_interference.json is a dated record of an earlier run.
func BenchmarkInterferenceQueries(b *testing.B) {
	for _, suite := range benchSuites {
		b.Run(suite.name, func(b *testing.B) {
			b.StopTimer()
			type prep struct {
				an    *interference.Analysis
				res   *pin.Resources
				roots []ir.ValueID
				nv    int
			}
			var ps []prep
			for _, f := range pinnedSuite(suite.build) {
				cfg.SplitCriticalEdges(f)
				res, err := pin.NewResources(f)
				if err != nil {
					b.Fatal(err)
				}
				an := interference.New(f, liveness.Compute(f), cfg.Dominators(f), interference.Exact)
				seen := make(map[ir.ValueID]bool)
				var roots []ir.ValueID
				for id := 0; id < f.NumValues(); id++ {
					if r := res.Find(ir.ValueID(id)); !seen[r] {
						seen[r] = true
						roots = append(roots, r)
					}
				}
				ps = append(ps, prep{an, res, roots, f.NumValues()})
			}
			b.StartTimer()
			verdicts := 0
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					g := interference.NewResourceGraph(p.an, p.res)
					for id := 0; id < p.nv; id++ {
						if g.IsKilled(ir.ValueID(id)) {
							verdicts++
						}
					}
					step := len(p.roots)/48 + 1
					for x := 0; x < len(p.roots); x += step {
						for y := x + 1; y < len(p.roots); y += step {
							if g.Interfere(p.roots[x], p.roots[y]) {
								verdicts++
							}
						}
					}
				}
			}
			if verdicts < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkInterferencePinning measures the two passes that consume the
// interference analysis: Program_pinning (φ-affinity coalescing,
// Algorithm 3) followed by the Leung out-of-pinned-SSA translation.
func BenchmarkInterferencePinning(b *testing.B) {
	for _, suite := range benchSuites {
		b.Run(suite.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				funcs := pinnedSuite(suite.build)
				b.StartTimer()
				for _, f := range funcs {
					if _, err := coalesce.ProgramPinning(f, coalesce.Options{}); err != nil {
						b.Fatal(err)
					}
					if _, err := leung.Translate(f); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			}
		})
	}
}
