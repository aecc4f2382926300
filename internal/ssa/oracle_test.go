package ssa_test

import (
	"os"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// referenceInputs returns the pre-SSA functions Build is held to its
// reference on: the 228 suite functions, 1,000 random programs (half of
// them with bottom-tested loops), 500 functions of the serve workloads'
// stream and the three LAI test files.
func referenceInputs(t *testing.T) []*ir.Func {
	t.Helper()
	var funcs []*ir.Func
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		funcs = append(funcs, build().Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < 500; seed++ {
		opt := testprog.RandOptions{
			MaxDepth:      1 + int(seed%4),
			Vars:          3 + int(seed/4%6),
			StmtsPerBlock: 1 + int(seed/24%5),
			Calls:         seed%2 == 0,
			Stack:         seed/2%2 == 0,
		}
		funcs = append(funcs, testprog.Rand(seed, opt))
		opt.BottomTestedLoops = true
		funcs = append(funcs, testprog.Rand(seed, opt))
	}
	funcs = append(funcs, workload.SynthFuncs(500, 1)...)
	for _, name := range []string{"fir", "sort", "strsearch"} {
		src, err := os.ReadFile("../lai/testdata/" + name + ".lai")
		if err != nil {
			t.Fatal(err)
		}
		f, err := lai.Parse(string(src))
		if err != nil {
			t.Fatalf("%s.lai: %v", name, err)
		}
		funcs = append(funcs, f)
	}
	return funcs
}

// lateInput moves the entry's .input to just before its terminator, so
// that uses of parameters ahead of it have no reaching definition: input
// Build must reject, with the position of the first such use.
func lateInput(f *ir.Func) *ir.Func {
	entry := f.Entry()
	for i, in := range entry.Instrs() {
		if in.Op() == ir.Input {
			entry.InsertBeforeTerminator(entry.RemoveAt(i))
			break
		}
	}
	return f
}

// checkAgainstReference builds SSA for two clones of src, one with
// Build and one with ReferenceBuild, and fails unless both reject it
// with the same error, or both leave the same function behind: the same
// arena (values and their names, operands, instructions, blocks), the
// same printed IR and the same origin for every value. It reports
// whether Build rejected src.
func checkAgainstReference(t *testing.T, src *ir.Func) (rejected bool) {
	t.Helper()
	got, want := src.Clone(), src.Clone()
	info, err := ssa.Build(got)
	origOf, wantErr := ssa.ReferenceBuild(want)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: Build error %v, reference %v", src.Name, err, wantErr)
	}
	if err != nil {
		return true
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: Build printed\n%s\nreference\n%s", src.Name, g, w)
	}
	if got.NumValues() != want.NumValues() || got.NumInstrSlots() != want.NumInstrSlots() {
		t.Fatalf("%s: Build left %d values and %d instruction slots, reference %d and %d",
			src.Name, got.NumValues(), got.NumInstrSlots(), want.NumValues(), want.NumInstrSlots())
	}
	if g, w := got.ArenaChecksum(), want.ArenaChecksum(); g != w {
		t.Fatalf("%s: Build's arena checksum %#x, reference %#x", src.Name, g, w)
	}
	if len(info.OrigOf) != got.NumValues() || len(origOf) != want.NumValues() {
		t.Fatalf("%s: %d origins from Build, %d from the reference, for %d values",
			src.Name, len(info.OrigOf), len(origOf), got.NumValues())
	}
	for v, o := range info.OrigOf {
		if w := origOf[ir.ValueID(v)]; o != w {
			t.Fatalf("%s: Build's origin of %s is %s, reference %s",
				src.Name, got.VStr(ir.ValueID(v)), got.VStr(o), got.VStr(w))
		}
	}
	return false
}

// TestBuildMatchesReference holds the dense construction to the
// map-based one on every reference input, and on each of them with its
// .input moved late, which Build must reject exactly as the reference
// does.
func TestBuildMatchesReference(t *testing.T) {
	funcs := referenceInputs(t)
	rejected := 0
	for _, src := range funcs {
		if checkAgainstReference(t, src) {
			t.Fatalf("%s: well-formed input rejected", src.Name)
		}
		if checkAgainstReference(t, lateInput(src.Clone())) {
			rejected++
		}
	}
	if rejected < len(funcs)/2 {
		t.Fatalf("only %d of %d late-input functions rejected: the error path is barely exercised", rejected, len(funcs))
	}
	t.Logf("%d functions agree, %d late-input variants rejected alike", len(funcs), rejected)
}
