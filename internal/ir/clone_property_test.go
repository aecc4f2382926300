package ir_test

import (
	"bytes"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// fuzzCorpus mirrors the pipeline fuzz harness's program distribution:
// random programs across several size classes, calls and stack traffic
// included.
func fuzzCorpus() []*ir.Func {
	var out []*ir.Func
	sizes := []testprog.RandOptions{
		{MaxDepth: 2, Vars: 3, StmtsPerBlock: 2},
		{MaxDepth: 3, Vars: 5, StmtsPerBlock: 4, Calls: true},
		{MaxDepth: 4, Vars: 6, StmtsPerBlock: 5, Calls: true, Stack: true},
	}
	for _, opt := range sizes {
		for seed := int64(0); seed < 12; seed++ {
			out = append(out, testprog.Rand(seed, opt))
		}
	}
	return out
}

// deepEqual checks full observable equivalence of two functions: the
// printed form, the exact b1 arena encoding (bit-exact down to span
// offsets), and execution behaviour.
func deepEqual(t *testing.T, tag string, want, got *ir.Func) {
	t.Helper()
	if want.String() != got.String() {
		t.Fatalf("%s: printed form differs:\n--- want\n%s\n--- got\n%s", tag, want, got)
	}
	wb, err := ir.MarshalBinary(want)
	if err != nil {
		t.Fatalf("%s: marshal want: %v", tag, err)
	}
	gb, err := ir.MarshalBinary(got)
	if err != nil {
		t.Fatalf("%s: marshal got: %v", tag, err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s: arena encodings differ — clone is not slab-exact", tag)
	}
	args := []int64{3, 14, 1}
	wr, werr := ir.Exec(want, args, 500000)
	gr, gerr := ir.Exec(got, args, 500000)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: exec divergence: %v vs %v", tag, werr, gerr)
	}
	if werr == nil && !wr.Equal(gr) {
		t.Fatalf("%s: behaviour differs", tag)
	}
}

// TestClonePropertyFuzzCorpus is the satellite-4 property test: over the
// fuzz corpus, (1) Clone is deeply equivalent to its source, (2) heavy
// mutation of the original (SSA build + full pipeline) leaves the clone
// untouched, and (3) RestoreFrom rolls the mutated function back to the
// exact snapshot state — same print, same arena bytes, same behaviour —
// while keeping the *Func pointer valid.
func TestClonePropertyFuzzCorpus(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fuzzCorpus() {
		snap := f.Clone()
		deepEqual(t, f.Name, f, snap)

		// Mutate the original through the heaviest path available.
		before := snap.String()
		ssa.Build(f)
		if _, err := pipeline.Run(f, conf, pipeline.WithSSAInfo(ssa.EmptyInfo())); err != nil {
			t.Fatalf("corpus %d (%s): pipeline: %v", i, f.Name, err)
		}
		if snap.String() != before {
			t.Fatalf("corpus %d (%s): mutating the original changed the clone", i, f.Name)
		}

		// Roll back and require exact snapshot equivalence.
		keep := snap.Clone() // RestoreFrom consumes its argument
		f.RestoreFrom(snap)
		deepEqual(t, f.Name+"/restored", keep, f)
		if err := f.Verify(); err != nil {
			t.Fatalf("corpus %d (%s): restored function invalid: %v", i, f.Name, err)
		}
	}
}

// TestRestoreFromInvalidatesAnalyses: a restored function must not serve
// analyses memoized against the pre-restore code. (The generation
// counters stay monotonic across RestoreFrom; this pins that contract
// from the outside.)
func TestRestoreFromGenerationMonotonic(t *testing.T) {
	f := testprog.Loop()
	snap := f.Clone()
	gen, cfgGen := f.Generation(), f.CFGGeneration()
	ssa.Build(f)
	f.RestoreFrom(snap)
	if f.Generation() <= gen {
		t.Fatalf("generation moved backwards across RestoreFrom: %d -> %d", gen, f.Generation())
	}
	if f.CFGGeneration() <= cfgGen {
		t.Fatalf("CFG generation moved backwards across RestoreFrom: %d -> %d", cfgGen, f.CFGGeneration())
	}
}
