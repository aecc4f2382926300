package regalloc_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/regalloc"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// outputsEqual compares only .output values: spilling legitimately adds
// stack stores to the observable store trace.
func outputsEqual(a, b *ir.ExecResult) bool {
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

func noVirtualsRemain(t *testing.T, f *ir.Func) {
	t.Helper()
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, o := range append(append([]ir.Operand{}, in.Defs()...), in.Uses()...) {
				if !f.IsPhys(o.Val) {
					t.Fatalf("virtual %v survived allocation in %q", f.VStr(o.Val), in)
				}
			}
		}
	}
}

func TestAllocateKernels(t *testing.T) {
	args := []int64{5000, 6000, 8, 3}
	n := len(workload.VALcc1().Funcs)
	for i := 0; i < n; i++ {
		ref := workload.VALcc1().Funcs[i]
		want, err := ir.Exec(ref, args, 300000)
		if err != nil {
			t.Fatal(err)
		}
		f := workload.VALcc1().Funcs[i]
		if _, err := pipeline.Run(f, pipeline.Configs[pipeline.ExpLphiABIC]); err != nil {
			t.Fatal(err)
		}
		st, err := regalloc.AllocateLimited(f, 0)
		if err != nil {
			t.Fatalf("%s: %v", ref.Name, err)
		}
		noVirtualsRemain(t, f)
		if err := f.Verify(); err != nil {
			t.Fatalf("%s: %v", ref.Name, err)
		}
		got, err := ir.Exec(f, args, 600000)
		if err != nil {
			t.Fatalf("%s: %v", ref.Name, err)
		}
		if !outputsEqual(want, got) {
			t.Fatalf("%s: allocation changed outputs: %v vs %v\n%s",
				ref.Name, want.Outputs, got.Outputs, f)
		}
		if st.ColorsUsed > 24 {
			t.Fatalf("%s: %d colors used", ref.Name, st.ColorsUsed)
		}
	}
}

// TestAllocateForcedSpills: with a tiny register pool the DCT butterfly
// (high pressure, straight-line) must spill and still compute correctly.
func TestAllocateForcedSpills(t *testing.T) {
	args := []int64{5000, 6000}
	// dct4 is index 15 in the kernel list; find it by name instead.
	find := func() *ir.Func {
		for _, f := range workload.VALcc1().Funcs {
			if f.Name == "dct4_A" {
				return f
			}
		}
		t.Fatal("dct4_A not found")
		return nil
	}
	ref := find()
	want, err := ir.Exec(ref, args, 100000)
	if err != nil {
		t.Fatal(err)
	}
	f := find()
	if _, err := pipeline.Run(f, pipeline.Configs[pipeline.ExpLphiABIC]); err != nil {
		t.Fatal(err)
	}
	st, err := regalloc.AllocateLimited(f, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spills == 0 {
		t.Fatalf("expected spills with 6 registers (pressure %d)", st.MaxPressure)
	}
	noVirtualsRemain(t, f)
	got, err := ir.Exec(f, args, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !outputsEqual(want, got) {
		t.Fatalf("spilling broke the DCT: %v vs %v\n%s", want.Outputs, got.Outputs, f)
	}
}

func TestAllocateRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		args := []int64{seed + 3000, 17, 4}
		ref := testprog.Rand(seed, testprog.DefaultRandOptions())
		want, err := ir.Exec(ref, args, 500000)
		if err != nil {
			t.Fatal(err)
		}
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		if _, err := pipeline.Run(f, pipeline.Configs[pipeline.ExpLphiABIC]); err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 6} {
			g := f.Clone()
			if _, err := regalloc.AllocateLimited(g, limit); err != nil {
				t.Fatalf("seed %d limit %d: %v", seed, limit, err)
			}
			noVirtualsRemain(t, g)
			got, err := ir.Exec(g, args, 1500000)
			if err != nil {
				t.Fatalf("seed %d limit %d: %v", seed, limit, err)
			}
			if !outputsEqual(want, got) {
				t.Fatalf("seed %d limit %d: outputs changed", seed, limit)
			}
		}
	}
}

// TestPressureReporting: the DCT butterfly holds many values live at
// once; MaxPressure must reflect that.
func TestPressureReporting(t *testing.T) {
	var f *ir.Func
	for _, g := range workload.VALcc1().Funcs {
		if g.Name == "mat2mul_A" {
			f = g
		}
	}
	if f == nil {
		t.Fatal("mat2mul_A not found")
	}
	if _, err := pipeline.Run(f, pipeline.Configs[pipeline.ExpLphiABIC]); err != nil {
		t.Fatal(err)
	}
	st, err := regalloc.AllocateLimited(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxPressure < 6 {
		t.Fatalf("mat2mul pressure = %d, expected >= 6", st.MaxPressure)
	}
}
