// Parallel batch driver: run many independent pipeline jobs across
// shared-nothing shards. The unit of parallelism is one job: one
// function running every column of its Plan. Each job builds (typically
// snapshots) its own *ir.Func inside the worker that executes it, and
// the snapshots its walk takes stay inside that worker, so no mutable
// IR, analysis memo, or Result is ever shared between goroutines. What
// jobs do share is read-only: the frozen masters they snapshot, a
// converted master's ssa.Info, and the Plan. Only the package-level
// analysis cache counters are touched concurrently, and those are
// atomic.
//
// Sharding: the job list is split into one contiguous range per
// worker, each with its own claim cursor and its own staging area for
// deterministic metrics. A worker drains its own shard first — during
// that phase the only cross-shard memory traffic is the occasional
// cursor read by an idle worker — and only then steals, at whole-job
// granularity, from the shard with the most work left. No partial
// job, scratch buffer, or IR pointer ever crosses a shard boundary:
// stolen work is re-built from the job's own Build closure inside the
// stealing worker.
//
// Determinism: results come back indexed by job, and when a batch
// tracer is attached each job records its event stream privately into
// an obs.Recorder; the recordings are replayed into the batch tracer in
// job order after all workers finish. Shard-staged metrics flush in
// shard order. The merged stream is therefore byte-identical to a
// serial run of the same jobs, whatever the worker interleaving was.
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
	// construction. Jobs of one master share its Info, so it must stay
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
// histogram. All updates are atomic cell writes, so unlike the tracer
// no recording/replay indirection is needed — counter totals are
// deterministic at any parallelism because atomic adds commute, while
// gauges and wall histograms legitimately reflect the actual schedule.
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
func RunBatch(jobs []Job, opts ...BatchOption) []JobResult {
	return RunBatchCtx(context.Background(), jobs, opts...)
}

// RunBatchCtx is RunBatch under a cancellation context. Once ctx is
// done, jobs not yet claimed by a worker are stamped with ctx.Err()
// instead of running, and in-flight jobs stop at their next pass
// boundary with a *PassError wrapping ctx.Err() — so a dead client (or
// an interrupted CLI) stops burning the worker pool instead of
// finishing the whole batch. Results still come back in job order; a
// context that never fires makes RunBatchCtx behave exactly like
// RunBatch, including the byte-identical trace replay.
func RunBatchCtx(ctx context.Context, jobs []Job, opts ...BatchOption) []JobResult {
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
			runJob(ctx, &jobs[i], &results[i], bc.tracer, bm, nil)
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

	// One shard per worker: a contiguous job range with a private claim
	// cursor and private metrics staging. The padding keeps each shard's
	// cursor on its own cache line so claim traffic never false-shares.
	shards := make([]batchShard, workers)
	for s := range shards {
		shards[s].lo = int64(s * len(jobs) / workers)
		shards[s].hi = int64((s + 1) * len(jobs) / workers)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			own := &shards[w]
			for {
				i, sh := own.claim()
				if sh == nil {
					// Own shard drained: steal a whole job from the most
					// loaded other shard. Stealing re-claims through the
					// victim's cursor, so a job still runs exactly once and
					// entirely inside one worker.
					i, sh = stealJob(shards, w)
				}
				if sh == nil {
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
				runJob(ctx, &jobs[i], &results[i], tr, bm, &own.stage)
			}
		}(w)
	}
	wg.Wait()

	for _, rec := range recs {
		rec.Replay(bc.tracer)
	}
	if bm != nil {
		// Flush the shard-staged deterministic metrics in shard order, so
		// the registry sees one well-defined sequence of updates whatever
		// the worker interleaving was.
		for s := range shards {
			shards[s].stage.flush(bm)
		}
	}
	return results
}

// batchShard is one worker's contiguous slice of the batch: a claim
// cursor over [lo, hi) plus the worker-private metrics staging. The
// cursor is atomic because idle workers steal through it; everything
// else is single-owner.
type batchShard struct {
	lo, hi int64
	next   atomic.Int64
	stage  shardStage
	// Pad to a cache line so neighbouring shards' cursors do not
	// false-share under cross-shard steal probing.
	_ [64]byte
}

// claim takes the next unrun job of the shard, returning (index, shard)
// or (0, nil) when the shard is drained.
func (sh *batchShard) claim() (int, *batchShard) {
	for {
		n := sh.next.Load()
		i := sh.lo + n
		if i >= sh.hi {
			return 0, nil
		}
		if sh.next.CompareAndSwap(n, n+1) {
			return int(i), sh
		}
	}
}

// stealJob claims one job from the other shard with the most unclaimed
// work (ties go to the lowest shard index, keeping the choice
// deterministic for a given cursor state). Returns (0, nil) when every
// shard is drained.
func stealJob(shards []batchShard, self int) (int, *batchShard) {
	for {
		victim := -1
		var most int64
		for s := range shards {
			if s == self {
				continue
			}
			sh := &shards[s]
			if left := (sh.hi - sh.lo) - sh.next.Load(); left > most {
				most, victim = left, s
			}
		}
		if victim < 0 {
			return 0, nil
		}
		if i, sh := shards[victim].claim(); sh != nil {
			return i, sh
		}
		// Lost the race for the victim's last job; rescan.
	}
}

// shardStage accumulates the deterministic per-job metrics of one
// shard — completed-job count and wall-time observations — privately,
// to be flushed into the shared registry in shard order after the
// batch completes. Gauges (queue depth, in-flight) stay live atomics:
// they describe the actual schedule and have no deterministic serial
// equivalent.
type shardStage struct {
	completed int64
	walls     []int64
}

func (st *shardStage) flush(bm *batchMetrics) {
	for _, w := range st.walls {
		bm.jobWall.Observe(w)
	}
	if st.completed > 0 {
		bm.jobs.Add(st.completed)
	}
	st.walls = st.walls[:0]
	st.completed = 0
}

func runJob(ctx context.Context, j *Job, out *JobResult, tr obs.Tracer, bm *batchMetrics, stage *shardStage) {
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
	rc := runConfig{tracer: tr, ctx: ctx, info: j.SSA, inSSA: j.SSA != nil}
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
	wall := time.Since(t0).Nanoseconds()
	bm.inflight.Dec()
	if stage != nil {
		stage.walls = append(stage.walls, wall)
		stage.completed++
		return
	}
	bm.jobWall.Observe(wall)
	bm.jobs.Inc()
}
