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
	// totals match `-trace-counters` totals by construction.
	MetricPassCounters = "laoc_pipeline_pass_counters_total"
	// MetricMaxLive is the derived per-function MAXLIVE distribution
	// (register pressure), computed post-pipeline via the query
	// liveness engine. Deterministic: perfgate compares it exactly.
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
	// laoc_ir_clones_total is the observed allocations-per-clone ratio
	// the bench-smoke CI gate asserts on.
	MetricIRClones          = "laoc_ir_clones_total"
	MetricIRCloneSlabAllocs = "laoc_ir_clone_slab_allocs_total"
	MetricIRRestores        = "laoc_ir_restores_total"
	MetricIRMarshals        = "laoc_ir_marshal_total"
	MetricIRUnmarshals      = "laoc_ir_unmarshal_total"

	// Copy-on-write snapshot metrics. laoc_ir_cow_materializations_total
	// / laoc_ir_snapshots_total is the copies-materialized ratio — the
	// fraction of snapshots that ever had to privatize storage. The
	// scaling-smoke CI gate asserts a ceiling on it for the mixed
	// throughput workload; read-only fan-outs keep it at zero.
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
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsV2 }, metrics.L("schema", "v2"))
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsV1 }, metrics.L("schema", "v1"))
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsB1 }, metrics.L("schema", "b1"))
	d.CounterFunc(MetricIRUnmarshals, func() int64 { return ir.Stats().UnmarshalsV2 }, metrics.L("schema", "v2"))
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
	d.SetHelp(MetricIRMarshals, "IR documents encoded, by wire schema (v2 = arena fast path).")
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

func registerHelp(reg *metrics.Registry) {
	if reg == nil {
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

type cellKey struct {
	reg  *metrics.Registry
	pass string
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
