package pipeline

import (
	"errors"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/ssa"
)

// namedPass is a pass named name whose body is body.
func namedPass(name string, body func() error) pass {
	return pass{passKey: passKey{name: name}, run: func(*ir.Func, *ssa.Info, *Result) error { return body() }}
}

// TestNilTracerAllocatesNothing pins down the zero-overhead contract of
// the default path: running a pass list with a nil tracer must not
// allocate — no snapshots, no events, no clock bookkeeping.
func TestNilTracerAllocatesNothing(t *testing.T) {
	f := ir.NewFunc("noalloc")
	f.NewBlock("entry")
	ok := func() error { return nil }
	ps := []pass{namedPass("a", ok), namedPass("b", ok), namedPass("c", ok)}
	r := &Result{}
	n := testing.AllocsPerRun(200, func() {
		if err := runPasses(f, nil, r, "", ps, nil, runOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("nil-tracer runPasses allocates %v per run, want 0", n)
	}
}

// TestRunnerStopsOnError: a failing pass must abort the run, surface
// its error as a *PassError naming the pass (with the cause reachable
// through errors.Is), and still deliver the failing pass's event — now
// carrying the error string — to an attached tracer (the trace shows
// where a run died).
func TestRunnerStopsOnError(t *testing.T) {
	boom := errors.New("pipeline: synthetic failure")
	f := ir.NewFunc("err")
	f.NewBlock("entry")
	ran := 0
	ps := []pass{
		namedPass("ok", func() error { ran++; return nil }),
		namedPass("fails", func() error { ran++; return boom }),
		namedPass("never", func() error { ran++; return nil }),
	}

	for _, tr := range []obs.Tracer{nil, &obs.Recorder{}} {
		ran = 0
		err := runPasses(f, nil, &Result{}, "exp", ps, tr, runOpts{})
		if !errors.Is(err, boom) {
			t.Fatalf("tracer=%T: got error %v, want cause %v", tr, err, boom)
		}
		var pe *PassError
		if !errors.As(err, &pe) {
			t.Fatalf("tracer=%T: error %T is not a *PassError", tr, err)
		}
		if pe.Pass != "fails" || pe.Func != "err" || pe.Config != "exp" {
			t.Fatalf("tracer=%T: PassError fields wrong: %+v", tr, pe)
		}
		if ran != 2 {
			t.Fatalf("tracer=%T: %d passes ran, want 2", tr, ran)
		}
		if rec, ok := tr.(*obs.Recorder); ok {
			run := rec.Runs[0]
			if len(run.Events) != 2 || run.Events[1].Pass != "fails" {
				t.Fatalf("failing pass not traced: %+v", run.Events)
			}
			if run.Events[1].Err == "" {
				t.Fatal("failing pass event carries no Err")
			}
			if run.Ended {
				t.Fatal("RunEnd fired despite pass failure")
			}
		}
	}
}

// TestRunnerContainsPanic: a panicking pass must not take down the
// process; the panic surfaces as a *PassError wrapping a *PanicError
// that records the panic value and a stack trace.
func TestRunnerContainsPanic(t *testing.T) {
	f := ir.NewFunc("boom")
	f.NewBlock("entry")
	ran := 0
	ps := []pass{
		namedPass("explodes", func() error { panic("kaboom") }),
		namedPass("never", func() error { ran++; return nil }),
	}
	err := runPasses(f, nil, &Result{}, "exp", ps, nil, runOpts{})
	var pe *PassError
	if !errors.As(err, &pe) || pe.Pass != "explodes" {
		t.Fatalf("got %v, want *PassError for pass \"explodes\"", err)
	}
	var pa *PanicError
	if !errors.As(err, &pa) {
		t.Fatalf("cause %v is not a *PanicError", pe.Cause)
	}
	if pa.Value != "kaboom" || pa.Stack == "" {
		t.Fatalf("panic not captured: value=%v stack=%d bytes", pa.Value, len(pa.Stack))
	}
	if ran != 0 {
		t.Fatal("pass after the panicking one still ran")
	}
}
