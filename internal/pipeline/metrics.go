// Metrics wiring for the pass runner and the batch driver: names,
// HELP strings, and the per-pass recording hook. The registry is
// attached per run with WithMetrics (or per batch with
// WithBatchMetrics); with no registry the runner keeps the nil-tracer
// zero-allocation fast path, pinned by TestNilMetricsAllocatesNothing.
package pipeline

import (
	"errors"
	"sync"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
)

// Metric names follow the DESIGN.md schema laoc_<subsystem>_<name>
// with unit suffixes; label axes are pass, config, counter.
const (
	// MetricRuns counts pipeline runs per experiment configuration.
	MetricRuns = "laoc_pipeline_runs_total"
	// MetricRunWallNS is the whole-run wall-time distribution per
	// experiment configuration (includes instrumentation overhead).
	MetricRunWallNS = "laoc_pipeline_run_wall_ns"
	// MetricPassWallNS is the per-pass wall-time distribution.
	MetricPassWallNS = "laoc_pipeline_pass_wall_ns"
	// MetricPassErrors counts failed passes (errors, contained panics,
	// checked-mode violations) per pass; MetricPanics the contained
	// panics among them; MetricFallbacks the runs rescued by the naive
	// fallback translation.
	MetricPassErrors = "laoc_pipeline_pass_errors_total"
	MetricPanics     = "laoc_pipeline_panics_total"
	MetricFallbacks  = "laoc_pipeline_fallbacks_total"
	// MetricPassCounters mirrors every pass counter ("<pass>.<Name>" in
	// trace events) onto the registry as {pass=...,counter=...}. The
	// registry records the very event a tracer receives, so registry
	// totals match the trace events' counter totals by construction.
	MetricPassCounters = "laoc_pipeline_pass_counters_total"
	// MetricMaxLive is the derived per-function MAXLIVE distribution
	// (register pressure), computed post-pipeline via the query
	// liveness engine. Deterministic: the counter golden
	// (TestCountersGolden in internal/stats) pins its sum, min and max.
	MetricMaxLive = "laoc_liveness_maxlive"

	// Batch driver metrics (RunBatch).
	MetricBatchJobs       = "laoc_batch_jobs_total"
	MetricBatchJobWallNS  = "laoc_batch_job_wall_ns"
	MetricBatchInflight   = "laoc_batch_jobs_inflight"
	MetricBatchQueueDepth = "laoc_batch_queue_depth"

	// IR slab-operation metrics. The counters themselves are atomics
	// inside internal/ir (which sits below the registry in the import
	// graph); init below bridges them onto metrics.Default via
	// CounterFunc, so they show up in -metrics-out / laocd exposition
	// without double bookkeeping. laoc_ir_clone_slab_allocs_total /
	// laoc_ir_clones_total is the observed allocations-per-clone ratio.
	MetricIRClones          = "laoc_ir_clones_total"
	MetricIRCloneSlabAllocs = "laoc_ir_clone_slab_allocs_total"
	MetricIRRestores        = "laoc_ir_restores_total"
	MetricIRMarshals        = "laoc_ir_marshal_total"
	MetricIRUnmarshals      = "laoc_ir_unmarshal_total"

	// Copy-on-write snapshot metrics. laoc_ir_cow_materializations_total
	// / laoc_ir_snapshots_total is the copies-materialized ratio — the
	// fraction of snapshots that ever had to privatize storage. A Func
	// that mutates while no other reader of its storage is left adopts
	// it instead (laoc_ir_cow_adoptions_total), as the function a Plan
	// walk continues on does once the snapshots of its earlier branches
	// are released. The counter golden pins both for the table runs;
	// read-only fan-outs keep materializations at zero
	// (TestReadOnlyPipelinePassZeroCopies).
	MetricIRSnapshots          = "laoc_ir_snapshots_total"
	MetricIRSnapshotSlabAllocs = "laoc_ir_snapshot_slab_allocs_total"
	MetricIRCOWMaterialized    = "laoc_ir_cow_materializations_total"
	MetricIRCOWSlabCopies      = "laoc_ir_cow_slab_copies_total"
	MetricIRCOWAdoptions       = "laoc_ir_cow_adoptions_total"
)

func init() {
	d := metrics.Default
	d.CounterFunc(MetricIRClones, func() int64 { return ir.Stats().Clones })
	d.CounterFunc(MetricIRCloneSlabAllocs, func() int64 { return ir.Stats().CloneSlabAllocs })
	d.CounterFunc(MetricIRRestores, func() int64 { return ir.Stats().Restores })
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsV1 }, metrics.L("schema", "v1"))
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsB1 }, metrics.L("schema", "b1"))
	d.CounterFunc(MetricIRUnmarshals, func() int64 { return ir.Stats().UnmarshalsV1 }, metrics.L("schema", "v1"))
	d.CounterFunc(MetricIRUnmarshals, func() int64 { return ir.Stats().UnmarshalsB1 }, metrics.L("schema", "b1"))
	d.CounterFunc(MetricIRSnapshots, func() int64 { return ir.Stats().Snapshots })
	d.CounterFunc(MetricIRSnapshotSlabAllocs, func() int64 { return ir.Stats().SnapshotSlabAllocs })
	d.CounterFunc(MetricIRCOWMaterialized, func() int64 { return ir.Stats().COWMaterializations })
	d.CounterFunc(MetricIRCOWSlabCopies, func() int64 { return ir.Stats().COWSlabCopies })
	d.CounterFunc(MetricIRCOWAdoptions, func() int64 { return ir.Stats().COWAdoptions })
	d.SetHelp(MetricIRSnapshots, "ir.Func.Snapshot calls (copy-on-write snapshots; chunk copies only, flat slabs deferred).")
	d.SetHelp(MetricIRSnapshotSlabAllocs, "Up-front heap allocations performed by Snapshot, summed (O(arena chunks), no flat slabs).")
	d.SetHelp(MetricIRCOWMaterialized, "Funcs that faulted at least one shared slab into private storage; divide by laoc_ir_snapshots_total for the copies-materialized ratio.")
	d.SetHelp(MetricIRCOWSlabCopies, "Individual deferred slab copies performed by copy-on-write faults.")
	d.SetHelp(MetricIRCOWAdoptions, "Mutations that adopted the family's shared storage copy-free (last reader standing).")
	d.SetHelp(MetricIRClones, "ir.Func.Clone calls (slab memcpy clones).")
	d.SetHelp(MetricIRCloneSlabAllocs, "Heap allocations performed by Clone, summed; divide by laoc_ir_clones_total for the per-clone ratio (O(arena chunks)).")
	d.SetHelp(MetricIRRestores, "ir.Func.RestoreFrom copy-backs (snapshot rollbacks).")
	d.SetHelp(MetricIRMarshals, "IR documents encoded, by wire schema (v1 = JSON, b1 = binary arena dump).")
	d.SetHelp(MetricIRUnmarshals, "IR documents decoded, by wire schema.")
}

// WithMetrics attaches a metrics registry to one Run call: the pass
// runner records per-pass wall histograms, error/panic/fallback
// counters, the pass-counter mirror, and the derived MAXLIVE
// histogram. It reads no allocation statistics, so it is safe to leave
// on under concurrent callers. A nil registry is the disabled fast
// path — identical to not passing the option.
func WithMetrics(reg *metrics.Registry) Option {
	return func(rc *runConfig) {
		rc.metrics = reg
		registerHelp(reg)
	}
}

// helped holds the registries registerHelp has already run on.
var helped sync.Map

// registerHelp sets the HELP strings of the pipeline families, once
// per registry: the options that attach a registry call it on every
// run, and each SetHelp is a map write under the registry lock.
func registerHelp(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	if _, done := helped.LoadOrStore(reg, struct{}{}); done {
		return
	}
	reg.SetHelp(MetricRuns, "Pipeline runs started, by experiment configuration.")
	reg.SetHelp(MetricRunWallNS, "Whole-run wall time in nanoseconds, by experiment configuration.")
	reg.SetHelp(MetricPassWallNS, "Per-pass wall time in nanoseconds.")
	reg.SetHelp(MetricPassErrors, "Failed passes: errors, contained panics, checked-mode violations.")
	reg.SetHelp(MetricPanics, "Panics contained by the per-pass recover.")
	reg.SetHelp(MetricFallbacks, "Runs that fell back to the naive out-of-SSA translation.")
	reg.SetHelp(MetricPassCounters, "Flattened pass counters, mirroring the trace-event counter totals.")
	reg.SetHelp(MetricMaxLive, "Per-function MAXLIVE (maximum simultaneously live values) after the pipeline.")
	reg.SetHelp(MetricBatchJobs, "Batch jobs completed.")
	reg.SetHelp(MetricBatchJobWallNS, "Per-job wall time in nanoseconds (build + run).")
	reg.SetHelp(MetricBatchInflight, "Batch jobs currently executing.")
	reg.SetHelp(MetricBatchQueueDepth, "Batch jobs not yet claimed by a worker.")
}

// recordPass feeds one pass's event into the registry: its wall time,
// its counters into the pass-counter mirror, and its failure, if any.
func recordPass(reg *metrics.Registry, ev *obs.Event, err error) {
	c := cellsFor(reg, ev)
	c.wall.Observe(ev.WallNS)
	for i, ctr := range ev.Counters {
		c.counters[i].Add(ctr.Value)
	}
	if err != nil {
		reg.Counter(MetricPassErrors, metrics.L("pass", ev.Pass)).Inc()
		var pa *PanicError
		if errors.As(err, &pa) {
			reg.Counter(MetricPanics).Inc()
		}
	}
}

// passCells are one pass's cells in one registry. A labeled lookup
// builds a key string under the registry lock; done per counter per
// pass it dominated the cost of the mirror, so the cells are resolved
// once per (registry, pass) and shared by every later run.
type passCells struct {
	wall     *metrics.Histogram
	counters []*metrics.Counter // parallel to the pass's counter list
}

// cellKey names a set of cells in one registry: a pass name for
// passCells, an experiment configuration for runCells.
type cellKey struct {
	reg  *metrics.Registry
	name string
}

var cellCache = struct {
	sync.RWMutex
	m map[cellKey]*passCells
}{m: make(map[cellKey]*passCells)}

// cellsFor returns the cells of ev's pass in reg, resolving them on the
// pass's first event, and again on its first event with counters (a
// failed pass carries none). A pass's counter list is fixed by its
// Stats type, so the cells then serve every later event.
func cellsFor(reg *metrics.Registry, ev *obs.Event) *passCells {
	k := cellKey{reg, ev.Pass}
	cellCache.RLock()
	c := cellCache.m[k]
	cellCache.RUnlock()
	if c != nil && len(c.counters) >= len(ev.Counters) {
		return c
	}
	c = &passCells{wall: reg.Histogram(MetricPassWallNS, metrics.L("pass", ev.Pass))}
	for _, ctr := range ev.Counters {
		c.counters = append(c.counters, reg.Counter(MetricPassCounters,
			metrics.L("pass", ev.Pass), metrics.L("counter", ctr.Name)))
	}
	cellCache.Lock()
	cellCache.m[k] = c
	cellCache.Unlock()
	return c
}

// runCells are one configuration's run-level cells in one registry,
// resolved once per (registry, configuration) like passCells.
type runCells struct {
	runs *metrics.Counter
	wall *metrics.Histogram
}

var runCellCache = struct {
	sync.RWMutex
	m map[cellKey]*runCells
}{m: make(map[cellKey]*runCells)}

// runCellsFor returns the run-level cells of configuration exp in reg.
func runCellsFor(reg *metrics.Registry, exp string) *runCells {
	k := cellKey{reg, exp}
	runCellCache.RLock()
	c := runCellCache.m[k]
	runCellCache.RUnlock()
	if c != nil {
		return c
	}
	c = &runCells{
		runs: reg.Counter(MetricRuns, metrics.L("config", exp)),
		wall: reg.Histogram(MetricRunWallNS, metrics.L("config", exp)),
	}
	runCellCache.Lock()
	runCellCache.m[k] = c
	runCellCache.Unlock()
	return c
}
