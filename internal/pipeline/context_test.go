package pipeline_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

func ctxTestFunc(seed int64) *ir.Func {
	return testprog.Rand(seed, testprog.DefaultRandOptions())
}

func ctxTestConfig(t *testing.T) pipeline.Config {
	t.Helper()
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	return conf
}

// TestRunContextCanceled: a context canceled before the run starts
// aborts at the first pass boundary with a *PassError wrapping
// context.Canceled.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pipeline.Run(ctxTestFunc(1), ctxTestConfig(t), pipeline.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the error chain, got %v", err)
	}
	var pe *pipeline.PassError
	if !errors.As(err, &pe) {
		t.Fatalf("want a *PassError naming the aborted pass, got %T: %v", err, err)
	}
}

// TestRunContextDeadlineWithFallback: an expired deadline is terminal —
// the fallback observes the same context, so Run reports the deadline
// instead of producing a translation nobody is waiting for.
func TestRunContextDeadlineWithFallback(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	conf := ctxTestConfig(t)
	conf.Verify = true
	conf.Fallback = true
	_, err := pipeline.Run(ctxTestFunc(2), conf, pipeline.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded through the error chain, got %v", err)
	}
}

// TestRunContextMidRunCancel cancels from inside the pipeline (via the
// fault hook, after the first pass) and checks the run stops at the
// next pass boundary rather than completing.
func TestRunContextMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conf := ctxTestConfig(t)
	var hooked atomic.Int32
	conf.FaultHook = func(pass string, f *ir.Func) {
		if hooked.Add(1) == 1 {
			cancel()
		}
	}
	_, err := pipeline.Run(ctxTestFunc(3), conf, pipeline.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled after mid-run cancel, got %v", err)
	}
	if n := hooked.Load(); n != 1 {
		t.Fatalf("want exactly one pass to run after the cancel point, hook ran %d times", n)
	}
}

// TestFaultHookPanicContained: a panic raised in the fault hook (the
// model of a buggy pass) is contained like a pass-body panic.
func TestFaultHookPanicContained(t *testing.T) {
	conf := ctxTestConfig(t)
	conf.FaultHook = func(pass string, f *ir.Func) {
		if pass == "pinning-phi" {
			panic("injected hook panic")
		}
	}
	_, err := pipeline.Run(ctxTestFunc(4), conf)
	var pa *pipeline.PanicError
	if !errors.As(err, &pa) {
		t.Fatalf("want a contained *PanicError, got %T: %v", err, err)
	}
	var pe *pipeline.PassError
	if !errors.As(err, &pe) || pe.Pass != "pinning-phi" {
		t.Fatalf("want the PassError to name pinning-phi, got %v", err)
	}

	// And with Fallback, the same panic is absorbed into a naive
	// translation instead of failing the run.
	conf.Verify = true
	conf.Fallback = true
	res, err := pipeline.Run(ctxTestFunc(4), conf)
	if err != nil {
		t.Fatalf("fallback after hook panic: %v", err)
	}
	if !res.FellBack {
		t.Fatal("want FellBack after a contained hook panic")
	}
}

// TestWithExecBudget: a one-step budget starves the fallback
// cross-check's reference interpretation into ir.ErrStepBudget on
// every argument vector — "no verdict", not a failure — so the
// fallback still completes. This is the deadline-to-step-budget
// hookup the compile service uses.
func TestWithExecBudget(t *testing.T) {
	conf := ctxTestConfig(t)
	conf.Verify = true
	conf.Fallback = true
	conf.FaultHook = func(pass string, f *ir.Func) {
		if pass == "pinning-phi" {
			panic("force the fallback path")
		}
	}
	res, err := pipeline.Run(ctxTestFunc(5), conf, pipeline.WithExecBudget(1))
	if err != nil {
		t.Fatalf("fallback under a 1-step exec budget: %v", err)
	}
	if !res.FellBack {
		t.Fatal("want FellBack after the forced pass failure")
	}
}

// TestRunBatchCtxCancel: cancelling a batch stamps unstarted jobs with
// ctx.Err() instead of running them.
func TestRunBatchCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conf := ctxTestConfig(t)
	var done atomic.Int32
	conf.FaultHook = func(pass string, f *ir.Func) {
		if pass == "out-of-pinned-ssa" && done.Add(1) == 3 {
			cancel()
		}
	}
	p := plan(t, pipeline.Column{Config: conf, Experiment: pipeline.ExpLphiABIC})
	jobs := make([]pipeline.Job, 64)
	for i := range jobs {
		seed := int64(i)
		jobs[i] = pipeline.Job{
			Build: func() *ir.Func { return ctxTestFunc(seed) },
			Plan:  p,
		}
	}
	results := pipeline.RunBatchCtx(ctx, jobs, pipeline.WithParallelism(2))
	var ok, canceled int
	for i := range results {
		switch {
		case results[i].Err == nil:
			ok++
		case errors.Is(results[i].Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("job %d: unexpected error %v", i, results[i].Err)
		}
	}
	if ok == 0 || canceled == 0 {
		t.Fatalf("want a mix of completed and canceled jobs, got ok=%d canceled=%d", ok, canceled)
	}
	if ok+canceled != len(jobs) {
		t.Fatalf("results unaccounted for: ok=%d canceled=%d of %d", ok, canceled, len(jobs))
	}
}

// TestRunBatchCtxBackground: RunBatchCtx with a background context is
// RunBatch — identical results, no cancellation machinery engaged.
func TestRunBatchCtxBackground(t *testing.T) {
	p := plan(t, pipeline.Column{Config: ctxTestConfig(t), Experiment: pipeline.ExpLphiABIC})
	// mk's jobs keep the functions they build, to compare final IR.
	mk := func() ([]pipeline.Job, []*ir.Func) {
		jobs := make([]pipeline.Job, 8)
		funcs := make([]*ir.Func, len(jobs))
		for i := range jobs {
			seed, i := int64(i), i
			jobs[i] = pipeline.Job{
				Build: func() *ir.Func { funcs[i] = ctxTestFunc(seed); return funcs[i] },
				Plan:  p,
			}
		}
		return jobs, funcs
	}
	aJobs, aFuncs := mk()
	a := pipeline.RunBatch(aJobs, pipeline.WithParallelism(4))
	bJobs, bFuncs := mk()
	b := pipeline.RunBatchCtx(context.Background(), bJobs, pipeline.WithParallelism(4))
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("job %d: errors %v / %v", i, a[i].Err, b[i].Err)
		}
		if aFuncs[i].String() != bFuncs[i].String() {
			t.Fatalf("job %d: RunBatch and RunBatchCtx disagree", i)
		}
	}
}
