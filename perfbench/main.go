// Command perfbench is the repository's benchmark: one command runs a
// named workload with a seed, prints every end-to-end metric by name
// and unit together with the operations attempted and failed, and
// checks every output against a reference the compiler under test did
// not produce. With -trace 1 it instead prints the per-layer split,
// built from spans the benchmark records around its calls into the
// repository's modules, and writes those spans to a file.
//
//	perfbench -workload tables|serve_cold|serve_warm -seed N -seconds S -trace 0|1
//
// The workloads, their metrics and the reasons for them are described
// in README.md next to this file. run.sh builds the binary from the
// checkout and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"outofssa/internal/obs"
)

// e2eMetrics are the end-to-end metrics every untraced run prints, in
// BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"funcs_per_s", "1/s"},
	{"cpu_ms_per_func", "ms"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"allocs_per_func", "count"},
	{"alloc_kb_per_func", "KB"},
	{"moves_total", "count"},
	{"max_rss_mb", "MB"},
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (inputs are read relative to it)
	workdir  string // scratch space for stores and the span file
}

// report is what a workload hands back to main: the operation counts,
// the metrics, and the informational fields printed above the result.
type report struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	info      map[string]any
}

// newReport starts a report whose info already carries the host stamp,
// so a traced run's span file records it too.
func newReport(opt options) *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"trace":      opt.trace,
		"host":       obs.HostInfo(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"at":         time.Now().UTC().Format(time.RFC3339),
	}}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: tables, serve_cold or serve_warm")
	seed := flag.Int64("seed", 1, "seed for the synthetic request streams")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "scratch `directory` for cache stores and the span file")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, workdir: *workdir}

	var fn func(options) (*report, error)
	switch *workload {
	case "tables":
		fn = runTables
	case "serve_cold":
		fn = runServeCold
	case "serve_warm":
		fn = runServeWarm
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want tables, serve_cold or serve_warm)\n", *workload)
		return 2
	}

	probe := hostProbe()
	rep, err := fn(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	probes := []float64{probe, hostProbe()}
	rep.info["host_probe_ms"] = probes
	rep.layers["host.probe_ms"] = median(probes)

	metrics := map[string]metricValue{}
	if opt.trace {
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{rep.layers[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = metricValue{rep.e2e[m.name], m.unit}
		}
	}
	info, _ := json.Marshal(rep.info) // map keys print sorted
	fmt.Printf("info %s\n", info)
	correct := rep.failed == 0
	out, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	fmt.Println(string(out))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed their checks\n", *workload, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spanPath is where a traced run writes its spans.
func spanPath(opt options) string {
	return filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
}
