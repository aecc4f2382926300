// Checked pipeline mode: failure containment for the pass runner.
//
// Three failure sources are unified behind one typed error, *PassError:
// ordinary pass errors, panics contained by the per-pass recover, and
// (when Config.Verify is set) invariant violations found by
// internal/verify after a pass body ran. When Config.Fallback is also
// set, Run retries a failed run through the naive out-of-SSA
// translation on a pre-pipeline snapshot and cross-checks the result
// against the snapshot with the ir.Exec oracle, so one misbehaving
// optimization cannot take down a batch run — it costs moves, not
// correctness.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"outofssa/internal/ir"
	"outofssa/internal/naiveabi"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/outofssa/naive"
	"outofssa/internal/verify"
)

// PassError reports which pass of which run failed and why. Cause is
// the pass's own error, a *PanicError for a contained panic, or a
// verifier violation; errors.As / errors.Is see through it.
type PassError struct {
	// Func and Config identify the run, as in obs.Event.
	Func   string
	Config string
	// Pass is the name of the failing pass ("<input>" when the checked
	// entry verification rejected the function before any pass ran).
	Pass string
	// Cause is the underlying failure.
	Cause error
	// Snapshot is the IR statistics at the moment of failure — the
	// reference into the trace stream for post-mortems (failure path
	// only; never taken on success).
	Snapshot obs.IRStat
}

func (e *PassError) Error() string {
	return fmt.Sprintf("%s: pass %q: %v", e.Func, e.Pass, e.Cause)
}

func (e *PassError) Unwrap() error { return e.Cause }

// PanicError wraps a panic recovered from a pass body.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// runOpts carries the checked-mode switches into the pass runner.
type runOpts struct {
	// verify re-checks IR invariants after every pass and on entry.
	// The entry state is checked at entryStage — whose zero value,
	// verify.StageSSA, is correct for both the configured pipeline and
	// the fallback (both start from a function in SSA form).
	verify     bool
	entryStage verify.Stage
	// faultHook, when non-nil, runs after each pass body and before
	// verification — the seam the fault-injection tests corrupt the IR
	// through.
	faultHook func(pass string, f *ir.Func)
	// metrics, when non-nil, makes the runner record per-pass
	// histograms and counters (see pipeline/metrics.go). Nil keeps the
	// zero-allocation fast path.
	metrics *metrics.Registry
	// ctx, when non-nil, is checked between passes: a done context
	// aborts the run with a *PassError wrapping ctx.Err() (WithContext).
	ctx context.Context
	// execBudget, when positive, bounds each fallback cross-check
	// interpretation instead of crossCheckBudget (WithExecBudget).
	execBudget int
}

// ctxCheck implements the cooperative cancellation point between
// passes: once the run's context is done, the next pass never starts
// and the failure names it. Free when no context is attached.
func ctxCheck(f *ir.Func, exp string, p *pass, opts runOpts) error {
	if opts.ctx == nil {
		return nil
	}
	if err := opts.ctx.Err(); err != nil {
		return &PassError{Func: f.Name, Config: exp, Pass: p.name,
			Cause: err, Snapshot: obs.Snapshot(f)}
	}
	return nil
}

// runOne executes a single pass with panic containment, applies the
// fault hook, verifies the result when asked, and wraps any failure in
// a *PassError. On success it returns nil and allocates nothing.
func runOne(f *ir.Func, exp string, p *pass, opts runOpts) error {
	err := runContained(f, p, opts.faultHook)
	if err == nil && opts.verify {
		if verr := verify.Func(f, p.stage); verr != nil {
			err = fmt.Errorf("verify: %w", verr)
		}
	}
	if err != nil {
		return &PassError{Func: f.Name, Config: exp, Pass: p.name,
			Cause: err, Snapshot: obs.Snapshot(f)}
	}
	return nil
}

// runContained runs the pass body — and the fault hook, which models a
// buggy pass and so shares the pass's failure domain: a panic in either
// is converted into an error instead of unwinding the caller. The
// deferred recover is open-coded by the compiler, so the success path
// stays allocation-free (pinned by TestNilTracerAllocatesNothing).
func runContained(f *ir.Func, p *pass, hook func(string, *ir.Func)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if err := p.run(); err != nil {
		return err
	}
	if hook != nil {
		hook(p.name, f)
	}
	return nil
}

// fallbackRun retries a failed run: it rolls f back to the entry
// snapshot backup, translates out of SSA naively (ignoring pins except
// through the post-pass ABI repair), and cross-checks the executable
// behaviour of the result against the snapshot. backup is consumed.
// The fallback passes run through the same instrumented runner, so a
// tracer sees them as "fallback-*" events in the normal stream.
func fallbackRun(f, backup *ir.Func, exp string, tr obs.Tracer, opts runOpts, r *Result) error {
	// ref is only ever executed (ir.Exec is a pure read), so a snapshot
	// sharing backup's slabs is enough — no copy.
	ref := backup.Snapshot()
	f.RestoreFrom(backup)
	budget := opts.execBudget
	if budget <= 0 {
		budget = crossCheckBudget
	}
	ps := []pass{
		{name: "fallback-out-naive", stage: verify.StagePostSSA, run: func() error {
			st, err := naive.Translate(f)
			if err != nil {
				return err
			}
			r.Naive = st
			return nil
		}, stats: func() counterLister { return r.Naive }},
		{name: "fallback-naive-abi", stage: verify.StagePostSSA, run: func() error {
			r.NaiveABI = naiveabi.Apply(f)
			return nil
		}, stats: func() counterLister { return r.NaiveABI }},
		{name: "fallback-crosscheck", stage: verify.StagePostSSA, run: func() error {
			return crossCheck(ref, f, budget)
		}},
	}
	// Always verified: the fallback exists to produce trustworthy code,
	// so it must clear the same bar it was invoked to enforce. The fault
	// hook is deliberately not forwarded — it already had its run. The
	// caller's context and exec budget carry over, so a dead client also
	// cancels its fallback.
	return runPasses(f, exp, ps, tr,
		runOpts{verify: true, metrics: opts.metrics, ctx: opts.ctx, execBudget: opts.execBudget})
}

// crossCheckArgs are the argument vectors the fallback validates on.
// Extra arguments beyond a function's declared inputs are ignored by
// ir.Exec, missing ones read as zero, so one fixed set covers every
// generated arity.
var crossCheckArgs = [][]int64{
	{0, 0, 0},
	{1, 2, 3},
	{9, 4, 2},
	{17, 5, 1},
}

// crossCheckBudget bounds each oracle execution. Loopy generated
// programs can legitimately exceed it; a budget overrun on the
// reference yields "no verdict" for that argument vector rather than
// a failure. WithExecBudget substitutes a caller budget (deadline-bound
// services shrink it so worst-case oracle work tracks the request
// deadline; the overrun still surfaces as ir.ErrStepBudget).
const crossCheckBudget = 1 << 20

// crossCheck interprets ref (the pre-pipeline snapshot) and got (the
// fallback's output) on the shared argument vectors and fails on the
// first observable difference.
func crossCheck(ref, got *ir.Func, budget int) error {
	for _, args := range crossCheckArgs {
		want, err := ir.Exec(ref, args, budget)
		if errors.Is(err, ir.ErrStepBudget) {
			continue // reference ran over budget: no verdict on these args
		}
		if err != nil {
			return fmt.Errorf("crosscheck: reference failed on %v: %w", args, err)
		}
		// The translated code executes extra copies; doubling keeps a
		// reference that just fit from flagging the output as divergent.
		have, err := ir.Exec(got, args, 2*budget)
		if err != nil {
			return fmt.Errorf("crosscheck: fallback output failed on %v: %w", args, err)
		}
		if !want.Equal(have) {
			return fmt.Errorf("crosscheck: behaviour differs on %v: outputs %v != %v, %d != %d stores",
				args, want.Outputs, have.Outputs, len(want.Stores), len(have.Stores))
		}
	}
	return nil
}
