// Command ssabench regenerates the evaluation tables of Rastello, de
// Ferrière and Guillon, "Optimizing Translation Out of SSA Using
// Renaming Constraints" (CGO 2004) over this repository's workload
// suites.
//
// Usage:
//
//	ssabench              # all tables
//	ssabench -table 3     # one table
//	ssabench -parallel 8  # run pipeline jobs on 8 workers (same output)
//	ssabench -verify      # all tables, re-verifying IR after every pass
//	ssabench -list        # list suites and sizes
//
// ssabench doubles as the profiling harness for the pipeline:
//
//	ssabench -trace-json trace.jsonl     # per-pass events for every run
//	ssabench -cpuprofile cpu.pprof       # CPU profile of the regeneration
//	ssabench -memprofile mem.pprof       # heap profile at exit
//	ssabench -trace-counters             # summed per-pass counters at exit
//	ssabench -metrics-out metrics.json   # registry snapshot (counters,
//	                                     # histograms, host stamp) at exit —
//	                                     # the format cmd/perfgate compares
//	ssabench -metrics-addr localhost:0   # serve /metrics (Prometheus text)
//	                                     # and /debug/pprof while running
//
// and as the harness for the resource-interference engines:
//
//	ssabench -interference-engine=pairwise   # force the O(k²) oracle engine
//	ssabench -bench-interference             # time both engines on a table
//	                                         # workload and check the outputs
//	                                         # are byte-identical
//
// and for the liveness engines:
//
//	ssabench -liveness-engine=iterative      # force the fixed-point oracle
//	ssabench -bench-liveness                 # time both liveness engines on a
//	                                         # table workload, check the
//	                                         # outputs byte-identical, and
//	                                         # report query/recompute counters
//
// The JSONL event schema is documented in DESIGN.md; `go tool pprof`
// reads the profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"outofssa/internal/analysis"
	"outofssa/internal/interference"
	"outofssa/internal/liveness"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/workload"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1-5); 0 means all")
	list := flag.Bool("list", false, "list the workload suites and exit")
	verifyMode := flag.Bool("verify", false, "checked mode: re-verify IR invariants after every pass of every run")
	parallel := flag.Int("parallel", 1, "worker pool size for pipeline runs; 0 means GOMAXPROCS (output is identical at any setting)")
	cacheStats := flag.Bool("cache-stats", false, "print analysis cache counters (requests/computes/reuses) to stderr at exit")
	traceJSON := flag.String("trace-json", "", "write per-pass trace events as JSONL to `file`")
	traceCounters := flag.Bool("trace-counters", false, "print per-pass counters (interference query volume, memo hits, merges) summed over every run to stderr at exit")
	engineName := flag.String("interference-engine", "", "resource-interference engine: dominance (default) or pairwise (the O(k²) oracle)")
	benchInterference := flag.Bool("bench-interference", false, "time the selected table workload (default: table 2) under both interference engines, check byte-identical output, and report the speedup")
	livenessEngineName := flag.String("liveness-engine", "", "liveness engine: query (default) or iterative (the fixed-point oracle)")
	benchLiveness := flag.Bool("bench-liveness", false, "time the selected table workload (default: table 2) under both liveness engines, check byte-identical output, and report the speedup plus query/recompute counters")
	benchThroughput := flag.Bool("bench-throughput", false, "measure whole-pipeline functions/sec at parallel=1/2/4/8 over a mixed compile+analyze workload and record it with the copy-on-write counter deltas")
	throughputOut := flag.String("throughput-out", "BENCH_throughput.json", "write the -bench-throughput report to `file`")
	benchPersist := flag.Bool("bench-persist", false, "measure the b1-vs-v2 wire codec over the Table 2 corpus and a laocd cold-vs-warm restart cycle on a persistent cache store")
	persistOut := flag.String("persist-out", "BENCH_persist.json", "write the -bench-persist report to `file`")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` at exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, histograms, host stamp) to `file` at exit; cmd/perfgate compares these")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json and /debug/pprof on `host:port` while the run is in flight")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ssabench:", err)
		os.Exit(1)
	}
	stats.Checked = *verifyMode
	stats.Parallel = *parallel

	// An interrupt cancels the table batches: queued jobs are skipped,
	// in-flight ones stop at the next pass boundary, and the driver
	// exits with the cancellation error instead of finishing all tables
	// on a worker pool nobody is waiting for.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stats.Context = ctx

	switch *engineName {
	case "":
	case "dominance":
		interference.DefaultEngine = interference.EngineDominance
	case "pairwise":
		interference.DefaultEngine = interference.EnginePairwise
	default:
		fail(fmt.Errorf("unknown -interference-engine %q (have: dominance, pairwise)", *engineName))
	}

	switch *livenessEngineName {
	case "":
	case "query":
		liveness.DefaultEngine = liveness.EngineQuery
	case "iterative":
		liveness.DefaultEngine = liveness.EngineIterative
	default:
		fail(fmt.Errorf("unknown -liveness-engine %q (have: query, iterative)", *livenessEngineName))
	}

	if *list {
		for _, s := range workload.All() {
			// φ counts require SSA form; the suites are built fresh for
			// this listing, so converting them in place is fine.
			instrs := s.NumInstrs()
			phis := 0
			for _, f := range s.Funcs {
				ssa.MustBuild(f)
				phis += f.CountPhis()
			}
			fmt.Printf("%-12s %4d functions, %6d instructions, %5d phis\n",
				s.Name, len(s.Funcs), instrs, phis)
		}
		return
	}

	if *cpuprofile != "" {
		w, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		if err := pprof.StartCPUProfile(w); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			w, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer w.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(w); err != nil {
				fail(err)
			}
		}()
	}

	if *cacheStats {
		defer func() {
			cs := analysis.Stats()
			fmt.Fprintf(os.Stderr, "analysis cache: liveness %d requests, %d computes, %d reused; dominators %d requests, %d computes, %d reused\n",
				cs.LivenessRequests, cs.LivenessComputes, cs.LivenessReused,
				cs.DominatorsRequests, cs.DominatorsComputes, cs.DominatorsReused)
			fmt.Fprintf(os.Stderr, "liveness engine: %d full builds, %d revalidations (%d var walks kept, %d invalidated)\n",
				cs.LivenessFullBuilds, cs.LivenessRevalidations,
				cs.LivenessVarsKept, cs.LivenessVarsInvalidated)
		}()
	}

	var tracer obs.Tracer
	if *traceJSON != "" {
		w, err := os.Create(*traceJSON)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		tracer = obs.NewJSONL(w)
	}
	if *traceCounters {
		cs := newCounterSum()
		defer cs.dump(os.Stderr)
		tracer = obs.Multi(tracer, cs)
	}

	if *metricsOut != "" || *metricsAddr != "" {
		// Route every table batch through the process-wide registry (the
		// analysis-cache counters land there unconditionally).
		stats.Metrics = metrics.Default
		if *metricsAddr != "" {
			addr, stop, err := metrics.Serve(*metricsAddr, metrics.Default)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "ssabench: serving metrics on http://%s/metrics\n", addr)
			defer stop()
		}
		if *metricsOut != "" {
			out := *metricsOut
			defer func() {
				w, err := os.Create(out)
				if err != nil {
					fail(err)
				}
				defer w.Close()
				if err := metrics.WriteJSON(w, metrics.Default.Snapshot(), obs.HostInfo()); err != nil {
					fail(err)
				}
			}()
		}
	}

	if *benchThroughput {
		if err := runBenchThroughput(*throughputOut); err != nil {
			fail(err)
		}
		return
	}
	if *benchPersist {
		if err := runBenchPersist(*persistOut); err != nil {
			fail(err)
		}
		return
	}
	if *benchInterference {
		if err := runBenchInterference(*table); err != nil {
			fail(err)
		}
		return
	}
	if *benchLiveness {
		if err := runBenchLiveness(*table); err != nil {
			fail(err)
		}
		return
	}

	run := func(fn func(obs.Tracer) (*stats.Table, error)) {
		t, err := fn(tracer)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
	}

	switch *table {
	case 0:
		fmt.Println(stats.Table1())
		ts, err := stats.AllTablesTraced(tracer)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			fmt.Println(t)
		}
	case 1:
		fmt.Println(stats.Table1())
	case 2:
		run(stats.Table2Traced)
	case 3:
		run(stats.Table3Traced)
	case 4:
		run(stats.Table4Traced)
	case 5:
		run(stats.Table5Traced)
	default:
		fmt.Fprintf(os.Stderr, "ssabench: no table %d (have 1-5)\n", *table)
		os.Exit(2)
	}
}

// counterSum is a Tracer that accumulates every per-pass counter across
// all runs, giving a whole-workload view of the interference query
// volume (the per-event values are in the JSONL trace).
type counterSum struct{ sums map[string]int64 }

func newCounterSum() *counterSum { return &counterSum{sums: make(map[string]int64)} }

func (c *counterSum) RunStart(string, string, obs.IRStat)      {}
func (c *counterSum) PassStart(string, string, string)         {}
func (c *counterSum) RunEnd(string, string, obs.IRStat, int64) {}
func (c *counterSum) PassEnd(ev *obs.Event) {
	for _, ctr := range ev.Counters {
		c.sums[ev.Pass+"."+ctr.Name] += ctr.Value
	}
}

func (c *counterSum) dump(w io.Writer) {
	for _, k := range obs.SortedKeys(c.sums) {
		fmt.Fprintf(w, "counter %-55s %12d\n", k, c.sums[k])
	}
}

// sumSuffix totals the counters whose key ends in suffix — e.g. every
// pass's ".Interference.KillQueries".
func (c *counterSum) sumSuffix(suffix string) int64 {
	var t int64
	for k, v := range c.sums {
		if strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

// tableRunners maps table numbers to their traced regenerators (Table 1
// is a static workload census — no pipeline runs, nothing to time).
var tableRunners = map[int]func(obs.Tracer) (*stats.Table, error){
	2: stats.Table2Traced,
	3: stats.Table3Traced,
	4: stats.Table4Traced,
	5: stats.Table5Traced,
}

// runBenchInterference times the selected table workload under the
// pairwise oracle engine and the dominance sweep engine, requires their
// table outputs to be byte-identical (exit 1 otherwise — this is the
// correctness gate the CI bench-smoke job relies on), and reports the
// wall-clock ratio plus the interference counter totals per engine.
func runBenchInterference(table int) error {
	if table == 0 {
		table = 2
	}
	run, ok := tableRunners[table]
	if !ok {
		return fmt.Errorf("-bench-interference needs a pipeline table (2-5), got %d", table)
	}
	fmt.Printf("host: %s\n", obs.HostInfo())
	const reps = 3
	type result struct {
		best   time.Duration
		all    []time.Duration
		output string
		cs     *counterSum
	}
	prev := interference.DefaultEngine
	defer func() { interference.DefaultEngine = prev }()

	engines := []interference.Engine{interference.EnginePairwise, interference.EngineDominance}
	results := make(map[interference.Engine]*result, len(engines))
	for _, e := range engines {
		interference.DefaultEngine = e
		r := &result{}
		for i := 0; i < reps; i++ {
			cs := newCounterSum()
			start := time.Now()
			t, err := run(cs)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("engine %s: %v", e, err)
			}
			r.all = append(r.all, d)
			if r.best == 0 || d < r.best {
				r.best = d
			}
			if i == 0 {
				r.output, r.cs = t.String(), cs
			} else if t.String() != r.output {
				return fmt.Errorf("engine %s: table %d output differs between repetitions", e, table)
			}
		}
		results[e] = r
		fmt.Printf("engine %-9s table %d: best %v of", e, table, r.best.Round(time.Millisecond))
		for _, d := range r.all {
			fmt.Printf(" %v", d.Round(time.Millisecond))
		}
		fmt.Println()
		for _, suffix := range []string{
			"Interference.KillQueries", "Interference.ResourceKilled",
			"Interference.ResourceInterfere", "Interference.KilledMemoHits",
			"Interference.InterfereMemoHits",
		} {
			fmt.Printf("  %-32s %12d\n", suffix, r.cs.sumSuffix(suffix))
		}
	}

	rp, rd := results[interference.EnginePairwise], results[interference.EngineDominance]
	if rp.output != rd.output {
		return fmt.Errorf("table %d output DIVERGES between engines — correctness bug", table)
	}
	fmt.Printf("outputs: byte-identical\nspeedup (pairwise/dominance, best-of-%d wall): %.2fx\n",
		reps, float64(rp.best)/float64(rd.best))
	return nil
}

// runBenchLiveness times the selected table workload under the
// iterative fixed-point engine and the query engine, requires their
// table outputs to be byte-identical (the CI engine-agreement gate),
// and reports the wall-clock ratio, the per-pass liveness query
// counters, and the analysis-cache build/revalidation deltas per
// engine.
func runBenchLiveness(table int) error {
	if table == 0 {
		table = 2
	}
	run, ok := tableRunners[table]
	if !ok {
		return fmt.Errorf("-bench-liveness needs a pipeline table (2-5), got %d", table)
	}
	fmt.Printf("host: %s\n", obs.HostInfo())
	// Five repetitions, engines interleaved (iterative, query,
	// iterative, ...) with a forced GC before each timed sample: the
	// engines differ by a few percent of the whole-pipeline wall, so
	// back-to-back per-engine batches would fold machine drift and
	// leftover heap into the comparison.
	const reps = 5
	type result struct {
		best   time.Duration
		all    []time.Duration
		output string
		cs     *counterSum
		// Analysis-cache deltas of the first repetition: how many times
		// a liveness request rebuilt the whole Info vs revalidated it.
		computes, fullBuilds, revals, kept, dropped uint64
	}
	prev := liveness.DefaultEngine
	defer func() { liveness.DefaultEngine = prev }()

	engines := []liveness.Engine{liveness.EngineIterative, liveness.EngineQuery}
	results := make(map[liveness.Engine]*result, len(engines))
	for _, e := range engines {
		results[e] = &result{}
	}
	for i := 0; i < reps; i++ {
		for _, e := range engines {
			liveness.DefaultEngine = e
			r := results[e]
			cs := newCounterSum()
			before := analysis.Stats()
			runtime.GC()
			start := time.Now()
			t, err := run(cs)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("engine %s: %v", e, err)
			}
			r.all = append(r.all, d)
			if r.best == 0 || d < r.best {
				r.best = d
			}
			if i == 0 {
				after := analysis.Stats()
				r.output, r.cs = t.String(), cs
				r.computes = after.LivenessComputes - before.LivenessComputes
				r.fullBuilds = after.LivenessFullBuilds - before.LivenessFullBuilds
				r.revals = after.LivenessRevalidations - before.LivenessRevalidations
				r.kept = after.LivenessVarsKept - before.LivenessVarsKept
				r.dropped = after.LivenessVarsInvalidated - before.LivenessVarsInvalidated
			} else if t.String() != r.output {
				return fmt.Errorf("engine %s: table %d output differs between repetitions", e, table)
			}
		}
	}
	for _, e := range engines {
		r := results[e]
		fmt.Printf("engine %-9s table %d: best %v of", e, table, r.best.Round(time.Millisecond))
		for _, d := range r.all {
			fmt.Printf(" %v", d.Round(time.Millisecond))
		}
		fmt.Println()
		fmt.Printf("  %-32s %12d\n  %-32s %12d (%d var walks kept, %d invalidated)\n",
			"liveness full Info builds", r.fullBuilds,
			"liveness revalidations", r.revals, r.kept, r.dropped)
		for _, suffix := range []string{
			"Interference.LiveQueryHits", "Interference.LiveQueryMisses",
			"Interference.LiveVarRecomputes",
		} {
			fmt.Printf("  %-32s %12d\n", suffix, r.cs.sumSuffix(suffix))
		}
	}

	ri, rq := results[liveness.EngineIterative], results[liveness.EngineQuery]
	if ri.output != rq.output {
		return fmt.Errorf("table %d output DIVERGES between liveness engines — correctness bug", table)
	}
	if ri.computes > 0 && rq.fullBuilds > 0 {
		fmt.Printf("full-Info recomputations: %d iterative -> %d query (%.1f%% reduction)\n",
			ri.computes, rq.fullBuilds,
			100*(1-float64(rq.fullBuilds)/float64(ri.computes)))
	}
	fmt.Printf("outputs: byte-identical\nspeedup (iterative/query, best-of-%d wall): %.2fx\n",
		reps, float64(ri.best)/float64(rq.best))
	return nil
}
