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
// correctness. A function that fails before any pass runs is bad
// input, not a bad pass: that failure is an *InputError, and the
// fallback does not retry it.
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
	"outofssa/internal/ssa"
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

// InputError reports that the function a run was given is not legal
// input: SSA construction rejected it (BuildSSA), the checked entry
// verification did (the "<input>" pseudo-pass), or a pinning pass found
// that the input's declared pins clash with the SP or ABI pins (Fig. 4
// cases 1 and 2). That is the caller's fault, not a pass's, and the
// fallback never retries it: the same function would fail the same
// way. Err is the failure itself, a *PassError for the pass or
// "<input>"; Error and errors.As see through to it.
type InputError struct{ Err error }

func (e *InputError) Error() string { return e.Err.Error() }

func (e *InputError) Unwrap() error { return e.Err }

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
	// built says the run's input comes unchanged from BuildSSA (the run
	// converted it, or it is a batch job's snapshot of a converted
	// master), so the entry check skips what BuildSSA's ssa.Verify
	// checked (verifyInput).
	verify, built bool
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

// cowProbe is checked mode's copy-on-write isolation check on the
// entry function, made before any pass runs (ir.Func.ProbeCOWIsolation):
// a snapshot pair is mutated in both directions and byte-compared. An
// aliasing bug would otherwise corrupt sibling runs silently; here it
// fails the run the same way a corrupted pass does.
func cowProbe(f *ir.Func, exp string) error {
	if err := f.ProbeCOWIsolation(); err != nil {
		return &PassError{Func: f.Name, Config: exp, Pass: "<cow-probe>",
			Cause: err, Snapshot: obs.Snapshot(f)}
	}
	return nil
}

// verifyInput is checked mode's entry check: a function that fails it
// is not legal input, so the failure is an *InputError for the
// pseudo-pass "<input>". The function is in SSA form. built says it
// comes unchanged from BuildSSA, whose ssa.Verify already checked its
// structure and SSA form; the check then skips those two and reports
// what the full one would.
func verifyInput(f *ir.Func, exp string, built bool) error {
	var err error
	if built {
		err = verify.AfterSSAVerify(f)
	} else {
		err = verify.Func(f, verify.StageSSA)
	}
	if err != nil {
		return &InputError{&PassError{Func: f.Name, Config: exp, Pass: "<input>",
			Cause: err, Snapshot: obs.Snapshot(f)}}
	}
	return nil
}

// runOne executes a single pass with panic containment, applies the
// fault hook, verifies the result when asked, and wraps any failure in
// a *PassError. On success it returns nil and allocates nothing.
func runOne(f *ir.Func, info *ssa.Info, r *Result, exp string, p *pass, opts runOpts) error {
	err := runContained(f, info, r, p, opts.faultHook)
	if err == nil && opts.verify {
		if verr := verify.Func(f, p.stage); verr != nil {
			err = fmt.Errorf("verify: %w", verr)
		}
	}
	if err != nil {
		pe := &PassError{Func: f.Name, Config: exp, Pass: p.name,
			Cause: err, Snapshot: obs.Snapshot(f)}
		// A pass that finds the input illegal fails the run as the entry
		// check does: an *InputError around the *PassError.
		var invalid *InputError
		if errors.As(err, &invalid) {
			pe.Cause = invalid.Err
			return &InputError{pe}
		}
		return pe
	}
	return nil
}

// runContained runs the pass body — and the fault hook, which models a
// buggy pass and so shares the pass's failure domain: a panic in either
// is converted into an error instead of unwinding the caller. The
// deferred recover is open-coded by the compiler, so the success path
// stays allocation-free (pinned by TestNilTracerAllocatesNothing).
func runContained(f *ir.Func, info *ssa.Info, r *Result, p *pass, hook func(string, *ir.Func)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if err := p.run(f, info, r); err != nil {
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
		{passKey: passKey{name: "fallback-out-naive"}, stage: verify.StagePostSSA,
			run: func(f *ir.Func, _ *ssa.Info, r *Result) error {
				st, err := naive.Translate(f)
				if err != nil {
					return err
				}
				r.Naive = st
				return nil
			}, stats: func(r *Result) counterLister { return r.Naive }},
		{passKey: passKey{name: "fallback-naive-abi"}, stage: verify.StagePostSSA,
			run: func(f *ir.Func, _ *ssa.Info, r *Result) error {
				r.NaiveABI = naiveabi.Apply(f)
				return nil
			}, stats: func(r *Result) counterLister { return r.NaiveABI }},
		{passKey: passKey{name: "fallback-crosscheck"}, stage: verify.StagePostSSA,
			run: func(f *ir.Func, _ *ssa.Info, _ *Result) error {
				return crossCheck(ref, f, budget)
			}},
	}
	// Always verified: the fallback exists to produce trustworthy code,
	// so it must clear the same bar it was invoked to enforce. The fault
	// hook is deliberately not forwarded — it already had its run. The
	// caller's context and exec budget carry over, so a dead client also
	// cancels its fallback.
	return runPasses(f, nil, r, exp, ps, tr,
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
