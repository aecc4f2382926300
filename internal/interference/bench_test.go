package interference_test

import (
	"slices"
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

// BenchmarkInterferenceQueries isolates the resource-level lifting
// Program_pinning sits on: for every function of the suite, over the
// classes of its φ results and arguments, IsKilled of every member plus
// Interfere over a sample of pairs of their roots, answered by a row
// table built for the call ("table", as ProgramPinning builds one) and
// by a fresh ResourceGraph with empty memos ("oracle").
// BENCH_interference.json is a dated record of an earlier engine.
func BenchmarkInterferenceQueries(b *testing.B) {
	type prep struct {
		an           *interference.Analysis
		res          *pin.Resources
		seeds, roots []ir.ValueID
	}
	type lifting interface {
		IsKilled(v ir.ValueID) bool
		Interfere(a, b ir.ValueID) bool
	}
	engines := []struct {
		name string
		lift func(p prep) lifting
	}{
		{"table", func(p prep) lifting { return interference.NewTable(p.an, p.res, p.seeds) }},
		{"oracle", func(p prep) lifting { return interference.NewResourceGraph(p.an, p.res) }},
	}
	for _, suite := range benchSuites {
		var ps []prep
		for _, f := range pinnedSuite(suite.build) {
			cfg.SplitCriticalEdges(f)
			res, err := pin.NewResources(f)
			if err != nil {
				b.Fatal(err)
			}
			p := prep{an: interference.New(f, liveness.Compute(f), cfg.Dominators(f), interference.Exact), res: res}
			for _, blk := range f.Blocks() {
				for _, phi := range blk.Phis() {
					p.seeds = append(p.seeds, phi.Def(0))
					for _, u := range phi.Uses() {
						p.seeds = append(p.seeds, u.Val)
					}
				}
			}
			for _, v := range p.seeds {
				if r := res.Find(v); !slices.Contains(p.roots, r) {
					p.roots = append(p.roots, r)
				}
			}
			ps = append(ps, p)
		}
		for _, e := range engines {
			b.Run(suite.name+"/"+e.name, func(b *testing.B) {
				verdicts := 0
				for i := 0; i < b.N; i++ {
					for _, p := range ps {
						g := e.lift(p)
						for _, v := range p.seeds {
							for _, m := range p.res.Members(v) {
								if g.IsKilled(m) {
									verdicts++
								}
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
