package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"outofssa/internal/analysis"
	"outofssa/internal/ir"
)

// counters is one point-in-time reading of everything the benchmark
// differences across a timed segment: wall clock, process CPU, the Go
// allocator and collector, the host's steal time, and the program's own
// exported counters (ir slab operations and the analysis cache).
type counters struct {
	wall       time.Time
	cpu        time.Duration // user+sys of the whole process
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate (denominator of gcCPU)
	stealTicks int64
	ir         ir.SlabStats
	analysis   analysis.CacheStats
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters() counters {
	metrics.Read(rtSamples)
	u := func(i int) uint64 {
		if rtSamples[i].Value.Kind() == metrics.KindUint64 {
			return rtSamples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if rtSamples[i].Value.Kind() == metrics.KindFloat64 {
			return rtSamples[i].Value.Float64()
		}
		return 0
	}
	return counters{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocObjs:  u(0) + u(1),
		allocBytes: u(2),
		gcCycles:   u(3),
		gcCPU:      f(4),
		totalCPU:   f(5),
		stealTicks: stealTicks(),
		ir:         ir.Stats(),
		analysis:   analysis.Stats(),
	}
}

// delta accumulates the difference between two readings; a timed phase
// made of several segments sums their deltas so that untimed work
// between segments (input generation, checks) stays out of every
// per-function figure.
type delta struct {
	wall       time.Duration
	cpu        time.Duration
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	stealTicks int64
	ir         ir.SlabStats
	analysis   analysis.CacheStats
	// segs keeps each segment's own figures, so a run can report the
	// median segment and show how its segments spread.
	segs []seg
}

// seg is one timed segment: n functions completed in wall time, using
// cpu, while the host stole steal seconds; p50 and p99 are the
// latencies of its operations in ms.
type seg struct {
	n         int
	wall, cpu time.Duration
	steal     float64
	p50, p99  float64
}

// add folds the segment between readings a and b into d; s brings the
// segment's function count and latencies.
func (d *delta) add(a, b counters, s seg) {
	s.wall, s.cpu, s.steal = b.wall.Sub(a.wall), b.cpu-a.cpu, float64(b.stealTicks-a.stealTicks)/100
	d.segs = append(d.segs, s)
	d.wall += b.wall.Sub(a.wall)
	d.cpu += b.cpu - a.cpu
	d.allocObjs += b.allocObjs - a.allocObjs
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.stealTicks += b.stealTicks - a.stealTicks
	d.ir.Snapshots += b.ir.Snapshots - a.ir.Snapshots
	d.ir.COWMaterializations += b.ir.COWMaterializations - a.ir.COWMaterializations
	d.ir.COWSlabCopies += b.ir.COWSlabCopies - a.ir.COWSlabCopies
	d.analysis.LivenessRequests += b.analysis.LivenessRequests - a.analysis.LivenessRequests
	d.analysis.LivenessReused += b.analysis.LivenessReused - a.analysis.LivenessReused
	d.analysis.DominatorsRequests += b.analysis.DominatorsRequests - a.analysis.DominatorsRequests
	d.analysis.DominatorsReused += b.analysis.DominatorsReused - a.analysis.DominatorsReused
}

// stealSeconds converts the /proc/stat steal ticks (summed over every
// CPU of the host) at the kernel's USER_HZ of 100.
func (d *delta) stealSeconds() float64 { return float64(d.stealTicks) / 100 }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealTicks reads the aggregate "cpu" line of /proc/stat; field 8 is
// the time the hypervisor ran something else while this guest wanted
// the CPU. Hosts without it report 0.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

// hostProbe times a fixed single-threaded job that never touches the
// program under test: filling, sorting and indexing a seeded slice. Its
// drift between runs is the host's own (another tenant on the core or
// its caches), which the steal counter does not show.
func hostProbe() float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 1<<18)
	t0 := time.Now()
	for rep := 0; rep < 2; rep++ {
		for i := range xs {
			xs[i] = rng.Int63()
		}
		slices.Sort(xs)
		idx := make(map[int64]int, len(xs)/16)
		for i := 0; i < len(xs); i += 16 {
			idx[xs[i]] = i
		}
	}
	return ms(time.Since(t0))
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// perSeg returns f of every segment.
func (d *delta) perSeg(f func(seg) float64) []float64 {
	out := make([]float64, len(d.segs))
	for i, sg := range d.segs {
		out[i] = f(sg)
	}
	return out
}

func segRate(sg seg) float64 { return ratio(float64(sg.n), sg.wall.Seconds()) }
func segCPU(sg seg) float64  { return ratio(ms(sg.cpu), float64(sg.n)) }
func segP50(sg seg) float64  { return sg.p50 }
func segP99(sg seg) float64  { return sg.p99 }

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// common fills the metrics every workload derives the same way from its
// timed phase: throughput, CPU and allocations per function, peak
// memory, and the runtime, ir and analysis counters.
func common(rep *report, d *delta, funcs int, rss float64) {
	n := float64(funcs)
	// Rate and CPU are medians over the timed segments: a burst of steal
	// or a neighbour's cache traffic then moves one segment, not the run.
	rep.e2e["funcs_per_s"] = median(d.perSeg(segRate))
	rep.e2e["cpu_ms_per_func"] = median(d.perSeg(segCPU))
	rep.e2e["allocs_per_func"] = ratio(float64(d.allocObjs), n)
	rep.e2e["alloc_kb_per_func"] = ratio(float64(d.allocBytes)/1024, n)
	rep.e2e["max_rss_mb"] = rss

	rep.layers["pipeline.core_utilization"] = ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	rep.layers["ir.snapshots_per_func"] = ratio(float64(d.ir.Snapshots), n)
	rep.layers["ir.cow_copy_ratio"] = ratio(float64(d.ir.COWMaterializations), float64(d.ir.Snapshots))
	rep.layers["ir.slab_copies_per_func"] = ratio(float64(d.ir.COWSlabCopies), n)
	rep.layers["analysis.liveness_reuse_ratio"] = ratio(float64(d.analysis.LivenessReused), float64(d.analysis.LivenessRequests))
	rep.layers["analysis.dominators_reuse_ratio"] = ratio(float64(d.analysis.DominatorsReused), float64(d.analysis.DominatorsRequests))
	rep.layers["runtime.gc_cycles_per_kfunc"] = ratio(float64(d.gcCycles)*1000, n)
	rep.layers["runtime.gc_cpu_share"] = ratio(d.gcCPU, d.totalCPU)
	rep.layers["host.steal_s"] = d.stealSeconds()

	rep.info["wall_s"] = d.wall.Seconds()
	rep.info["cpu_s"] = d.cpu.Seconds()
	rep.info["steal_s"] = d.stealSeconds()
	rep.info["funcs"] = funcs
	var series [][5]float64
	for _, sg := range d.segs {
		series = append(series, [5]float64{math.Round(segRate(sg)), math.Round(segCPU(sg)*1e4) / 1e4, sg.steal, sg.p50, sg.p99})
	}
	rep.info["segments_fps_cpu_steal_p50_p99"] = series
}

// overhead compares the traced and untraced segments of a traced
// run's timed phase: median CPU per function and median latency.
func overhead(rep *report, plain, traced *delta) {
	rep.layers["trace.overhead_cpu_ratio"] = ratio(median(traced.perSeg(segCPU)), median(plain.perSeg(segCPU)))
	rep.layers["trace.overhead_p50_ratio"] = ratio(median(traced.perSeg(segP50)), median(plain.perSeg(segP50)))
}

// latencyInfo summarizes a latency sample for the info line.
func latencyInfo(xs []float64) map[string]float64 {
	c := append([]float64(nil), xs...)
	return map[string]float64{
		"n":   float64(len(c)),
		"p50": quantile(c, 0.50),
		"p90": quantile(c, 0.90),
		"p99": quantile(c, 0.99),
		"max": quantile(c, 1),
	}
}
