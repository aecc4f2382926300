// Parallel batch driver: run many independent pipeline jobs on a pool
// of workers. The unit of parallelism is one job: one function running
// every column of its Plan. Each job builds (typically snapshots) its
// own *ir.Func inside the worker that executes it, and the snapshots
// its walk takes stay inside that worker, so every function, its
// analysis memo and its Result have one owner. What jobs do share is
// read-only: the frozen masters they snapshot, a converted master's
// ssa.Info, and the Plan. Only the package-level counters (analysis
// cache, ir.Stats) and the batch metrics are touched concurrently, and
// those are atomic.
//
// Scheduling: workers claim job indices in order from one shared
// atomic cursor until the batch is drained; a job runs exactly once,
// entirely inside the worker that claimed it.
//
// Determinism: results come back indexed by job, and when a batch
// tracer is attached each job records its event stream privately into
// an obs.Recorder; the recordings are replayed into the batch tracer in
// job order after all workers finish. The merged stream is therefore
// byte-identical to a serial run of the same jobs, whatever the worker
// interleaving was. Counter totals need no such care, since atomic adds
// commute.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/ssa"
)

// Job is one unit of batch work: a function to build and the columns
// to run it under.
type Job struct {
	// Build returns the function to translate. It is called exactly
	// once, inside the worker that executes the job, so expensive builds
	// (or Clones of a shared master) are themselves parallelized. The
	// returned function must not be shared with any other job.
	Build func() *ir.Func
	// Plan holds the columns. A one-column plan runs as
	// Run(f, Config, WithExperiment(Experiment)) does; several columns
	// share their pass prefixes (see Plan). Jobs may share one Plan.
	Plan *Plan
	// SSA, when non-nil, says Build returns a snapshot of a function
	// BuildSSA already converted, and is the Info that conversion
	// returned: the job runs as with WithSSAInfo(SSA) and skips SSA
	// construction, and checked mode's entry check skips the structure
	// and SSA-form checks BuildSSA's ssa.Verify made. A snapshot that
	// is not the master it claims fails at the first pass's verify
	// instead. Jobs of one master share its Info, so it must stay
	// read-only.
	SSA *ssa.Info
}

// JobResult is the outcome of one Job, in the same order RunBatch
// received the jobs. Results holds one Result per column of the job's
// Plan, nil where the column failed, and Err is the first failing
// column's error. The function the job ran on is not kept, so each
// becomes garbage as soon as its job ends.
type JobResult struct {
	Results []*Result
	Err     error
}

// BatchOption configures RunBatch.
type BatchOption func(*batchConfig)

type batchConfig struct {
	parallelism int
	tracer      obs.Tracer
	metrics     *metrics.Registry
}

// WithParallelism bounds the worker pool at n goroutines. n <= 0 (and
// the default) means runtime.GOMAXPROCS(0). n == 1 runs the jobs
// serially on the calling goroutine.
func WithParallelism(n int) BatchOption {
	return func(bc *batchConfig) { bc.parallelism = n }
}

// WithBatchTracer attaches tr to every job in the batch. The tracer
// itself is never called concurrently: workers record privately and the
// recordings are replayed into tr in job order once the batch is done,
// so tr needs no synchronization and sees a deterministic stream.
func WithBatchTracer(tr obs.Tracer) BatchOption {
	return func(bc *batchConfig) { bc.tracer = tr }
}

// WithBatchMetrics attaches reg to every job (as WithMetrics does for
// one run) and additionally maintains the batch-level metrics: queue
// depth, jobs in flight, completed jobs, and the per-job wall-time
// histogram. Workers update them directly with atomic cell writes, so
// unlike the tracer no recording/replay indirection is needed —
// counter totals are deterministic at any parallelism because atomic
// adds commute, while gauges and wall histograms legitimately reflect
// the actual schedule.
func WithBatchMetrics(reg *metrics.Registry) BatchOption {
	return func(bc *batchConfig) { bc.metrics = reg; registerHelp(reg) }
}

// batchMetrics holds the pre-looked-up instrument handles so workers
// never touch the registry lock.
type batchMetrics struct {
	reg      *metrics.Registry
	queue    *metrics.Gauge
	inflight *metrics.Gauge
	jobs     *metrics.Counter
	jobWall  *metrics.Histogram
}

func newBatchMetrics(reg *metrics.Registry, queued int) *batchMetrics {
	bm := &batchMetrics{
		reg:      reg,
		queue:    reg.Gauge(MetricBatchQueueDepth),
		inflight: reg.Gauge(MetricBatchInflight),
		jobs:     reg.Counter(MetricBatchJobs),
		jobWall:  reg.Histogram(MetricBatchJobWallNS),
	}
	bm.queue.Add(int64(queued))
	return bm
}

// RunBatch executes every job and returns their results in job order.
// Failures are per-job: one job's error (or contained panic, under
// Config.Verify/Fallback as usual) lands in its JobResult and the rest
// of the batch still runs.
//
// Once ctx is done, jobs not yet claimed by a worker are stamped with
// ctx.Err() instead of running, and in-flight jobs stop at their next
// pass boundary with a *PassError wrapping ctx.Err(), so an interrupted
// CLI stops burning the worker pool instead of finishing the whole
// batch. A context that never fires gives the same results and the
// same byte-identical trace replay as context.Background(), which
// skips the cancellation checks.
func RunBatch(ctx context.Context, jobs []Job, opts ...BatchOption) []JobResult {
	var bc batchConfig
	for _, o := range opts {
		o(&bc)
	}
	if ctx == context.Background() {
		ctx = nil // keep the pipeline's uncancellable fast path
	}
	workers := bc.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]JobResult, len(jobs))
	var bm *batchMetrics
	if bc.metrics != nil {
		bm = newBatchMetrics(bc.metrics, len(jobs))
	}

	if workers <= 1 {
		// Serial fast path: trace straight into the batch tracer — the
		// job-order stream the parallel path reconstructs by replay.
		for i := range jobs {
			runJob(ctx, &jobs[i], &results[i], bc.tracer, bm)
		}
		return results
	}

	// Per-job private recorders, replayed in order below. Only allocated
	// when a tracer is attached.
	var recs []*obs.Recorder
	if bc.tracer != nil {
		recs = make([]*obs.Recorder, len(jobs))
		for i := range recs {
			recs[i] = &obs.Recorder{}
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				// The nil-interface pitfall: assigning a nil *Recorder to
				// an obs.Tracer variable would make it non-nil and disable
				// the pipeline's untraced fast path, so the tracer is only
				// bound when recording is on.
				var tr obs.Tracer
				if recs != nil {
					tr = recs[i]
				}
				runJob(ctx, &jobs[i], &results[i], tr, bm)
			}
		}()
	}
	wg.Wait()

	for _, rec := range recs {
		rec.Replay(bc.tracer)
	}
	return results
}

func runJob(ctx context.Context, j *Job, out *JobResult, tr obs.Tracer, bm *batchMetrics) {
	if ctx != nil && ctx.Err() != nil {
		// Load shedding for batches: a canceled batch stamps the jobs it
		// never started instead of building and running them.
		out.Err = ctx.Err()
		if bm != nil {
			bm.queue.Dec()
		}
		return
	}
	// One runConfig serves both paths, its options applied directly:
	// WithTracer and WithContext always, WithMetrics on the metered
	// path, and WithSSAInfo for a converted master.
	rc := runConfig{tracer: tr, ctx: ctx, info: j.SSA, inSSA: j.SSA != nil, ssaVerified: j.SSA != nil}
	var t0 time.Time
	if bm != nil {
		bm.queue.Dec()
		bm.inflight.Inc()
		t0 = time.Now()
		rc.metrics = bm.reg
	}
	out.Results, out.Err = rc.runPlan(j.Build(), j.Plan)
	if bm == nil {
		return
	}
	bm.jobWall.Observe(time.Since(t0).Nanoseconds())
	bm.inflight.Dec()
	bm.jobs.Inc()
}
