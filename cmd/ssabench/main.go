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
//	ssabench -metrics-out metrics.json   # registry snapshot (counters,
//	                                     # histograms, host stamp) at exit
//	ssabench -metrics-addr localhost:0   # serve /metrics (Prometheus text)
//	                                     # and /debug/pprof while running
//
// The reference engines render the tables in tests, not here, and so
// does the golden of every deterministic counter:
//
//	go test -run TestTablesUnderFullGraphOracle ./internal/regalloc/
//	go test -run TestTablesUnderKillOracle ./internal/outofssa/leung/
//	go test -run TestCountersGolden ./internal/stats/
//
// perfbench/ is the repository's benchmark.
//
// The JSONL event schema is documented in DESIGN.md; `go tool pprof`
// reads the profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

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
	traceJSON := flag.String("trace-json", "", "write per-pass trace events as JSONL to `file`")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` at exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, histograms, host stamp) to `file` at exit")
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

	var tracer obs.Tracer
	if *traceJSON != "" {
		w, err := os.Create(*traceJSON)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		tracer = obs.NewJSONL(w)
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
	case 2, 3, 4, 5:
		t, err := stats.OneTable(*table, tracer)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
	default:
		fmt.Fprintf(os.Stderr, "ssabench: no table %d (have 1-5)\n", *table)
		os.Exit(2)
	}
}
