package analysis_test

import (
	"strings"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/verify"
	"outofssa/internal/workload"
)

// delta runs fn and returns how the package counters moved across it.
func delta(fn func()) analysis.CacheStats {
	before := analysis.Stats()
	fn()
	after := analysis.Stats()
	return analysis.CacheStats{
		LivenessRequests:   after.LivenessRequests - before.LivenessRequests,
		LivenessComputes:   after.LivenessComputes - before.LivenessComputes,
		LivenessReused:     after.LivenessReused - before.LivenessReused,
		DominatorsRequests: after.DominatorsRequests - before.DominatorsRequests,
		DominatorsComputes: after.DominatorsComputes - before.DominatorsComputes,
		DominatorsReused:   after.DominatorsReused - before.DominatorsReused,
	}
}

func TestLivenessMemoized(t *testing.T) {
	f := testprog.Diamond()
	var same bool
	d := delta(func() {
		l1 := analysis.Liveness(f)
		l2 := analysis.Liveness(f)
		same = l1 == l2
	})
	if !same {
		t.Fatal("second request on an unchanged function returned a different liveness")
	}
	if d.LivenessRequests != 2 || d.LivenessComputes != 1 || d.LivenessReused != 1 {
		t.Fatalf("counters: %+v, want 2 requests / 1 compute / 1 reuse", d)
	}
}

func TestDominatorsMemoized(t *testing.T) {
	f := testprog.NestedLoops()
	var same bool
	d := delta(func() {
		d1 := analysis.Dominators(f)
		d2 := analysis.Dominators(f)
		same = d1 == d2
	})
	if !same {
		t.Fatal("second request on an unchanged function returned a different dom tree")
	}
	if d.DominatorsRequests != 2 || d.DominatorsComputes != 1 || d.DominatorsReused != 1 {
		t.Fatalf("counters: %+v, want 2 requests / 1 compute / 1 reuse", d)
	}
}

// Every structural mutator of the ir package must move the generation
// counter, so a cached analysis never survives it. The contract is
// two-level: code-only mutators (value/instruction edits, NoteMutation)
// invalidate liveness but leave the CFG-keyed dominator tree valid;
// CFG mutators (NewBlock, AddEdge, ReplacePred/Succ, NoteCFGMutation,
// RestoreFrom) invalidate both.
func TestStructuralMutatorsInvalidate(t *testing.T) {
	mutations := []struct {
		name string
		cfg  bool // must also invalidate dominators
		do   func(f *ir.Func)
	}{
		{"NewValue", false, func(f *ir.Func) { f.NewValue("g") }},
		{"NewBlock", true, func(f *ir.Func) { f.NewBlock("g") }},
		{"AddEdge", true, func(f *ir.Func) { f.AddEdge(f.Blocks()[len(f.Blocks())-1], f.Entry()) }},
		{"Append", false, func(f *ir.Func) {
			in := f.NewInstr(ir.Const, ir.Ops(f.NewValue("k")), nil)
			in.Imm = 7
			f.Entry().Append(in)
		}},
		{"InsertAt", false, func(f *ir.Func) {
			in := f.NewInstr(ir.Const, ir.Ops(f.NewValue("k")), nil)
			in.Imm = 7
			f.Entry().InsertAt(0, in)
		}},
		{"RemoveAt", false, func(f *ir.Func) { f.Entry().RemoveAt(0) }},
		{"NoteMutation", false, func(f *ir.Func) { f.NoteMutation() }},
		{"NoteCFGMutation", true, func(f *ir.Func) { f.NoteCFGMutation() }},
		{"RestoreFrom", true, func(f *ir.Func) { f.RestoreFrom(f.Clone()) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			f := testprog.Diamond()
			gen := f.Generation()
			cfgGen := f.CFGGeneration()
			analysis.Liveness(f)
			analysis.Dominators(f)
			m.do(f)
			if f.Generation() == gen {
				t.Fatalf("%s did not move the generation counter", m.name)
			}
			if m.cfg && f.CFGGeneration() == cfgGen {
				t.Fatalf("%s did not move the CFG generation counter", m.name)
			}
			d := delta(func() { analysis.Liveness(f); analysis.Dominators(f) })
			if d.LivenessComputes != 1 {
				t.Fatalf("after %s: %+v, want a fresh liveness compute", m.name, d)
			}
			if m.cfg && d.DominatorsComputes != 1 {
				t.Fatalf("after %s: %+v, want a fresh dominators compute", m.name, d)
			}
			if !m.cfg && d.DominatorsReused != 1 {
				t.Fatalf("after code-only %s: %+v, want the dominator tree served from cache", m.name, d)
			}
		})
	}
}

// A clone starts with a cold cache of its own; its analyses are never
// shared with (or taken from) the original.
func TestCloneStartsCold(t *testing.T) {
	f := testprog.SwapLoop()
	lf := analysis.Liveness(f)
	g := f.Clone()
	var lg any
	d := delta(func() { lg = analysis.Liveness(g) })
	if d.LivenessComputes != 1 {
		t.Fatalf("clone reused an analysis across functions: %+v", d)
	}
	if lg == lf {
		t.Fatal("clone returned the original's liveness object")
	}
	// The original's cache is untouched by the clone's compute.
	d = delta(func() { analysis.Liveness(f) })
	if d.LivenessReused != 1 {
		t.Fatalf("original lost its cache entry: %+v", d)
	}
}

func TestInvalidateForcesRecompute(t *testing.T) {
	f := testprog.Loop()
	analysis.Liveness(f)
	analysis.Invalidate(f)
	d := delta(func() { analysis.Liveness(f) })
	if d.LivenessComputes != 1 {
		t.Fatalf("Invalidate did not drop the entry: %+v", d)
	}
}

// TestSilentMutationGoesStale documents the failure mode the generation
// contract exists to prevent: a pass that rewrites operands in place
// WITHOUT calling NoteMutation leaves cached analyses valid-looking but
// wrong. faultinject.InjectSilent is exactly such a pass;
// faultinject.Inject is its contract-honoring twin, and the cache
// recovers the moment the counter moves.
func TestSilentMutationGoesStale(t *testing.T) {
	f := testprog.Diamond()
	ssa.MustBuild(f)

	stale := analysis.Liveness(f)
	if !faultinject.InjectSilent(f, faultinject.MisplacedPhi) {
		t.Fatal("no misplaced-phi site found")
	}
	if got := analysis.Liveness(f); got != stale {
		t.Fatal("silent in-place mutation invalidated the cache — the staleness this test documents cannot happen")
	}

	// The honest twin: same corruption on a fresh function, plus the
	// NoteMutation the contract requires. The cache recomputes.
	g := testprog.Diamond()
	ssa.MustBuild(g)
	cached := analysis.Liveness(g)
	if !faultinject.Inject(g, faultinject.MisplacedPhi) {
		t.Fatal("no misplaced-phi site found")
	}
	d := delta(func() {
		if analysis.Liveness(g) == cached {
			// Pointer equality alone is not the test — a recompute
			// allocates fresh, so same pointer means the stale entry
			// survived.
			t.Fatal("Inject (with NoteMutation) did not invalidate the cache")
		}
	})
	if d.LivenessComputes != 1 {
		t.Fatalf("after Inject: %+v, want 1 fresh compute", d)
	}
}

// TestStaleVarLivenessCaught is the stale-cache hazard test for the
// query engine's per-variable memos: a silent φ-argument swap
// (faultinject.StaleVarLiveness) leaves the cached Info's walks
// describing live ranges that no longer exist. The cache must keep
// serving the stale Info (that is the documented failure mode of a
// contract-violating pass), the stale answers must demonstrably differ
// from ground truth, and the checked pipeline's verifier must reject
// the corrupted function so the damage cannot propagate.
func TestStaleVarLivenessCaught(t *testing.T) {
	f := testprog.Diamond()
	ssa.MustBuild(f)

	stale := analysis.Liveness(f)
	if !stale.Incremental() {
		t.Fatal("the cache built an Info without per-variable memos, want a lazy query Info")
	}
	// Force the per-variable walks to be memoized before the corruption
	// lands, so the stale answers below come from the old memos.
	for _, b := range f.Blocks() {
		stale.LiveOutSet(b)
	}
	if !faultinject.InjectSilent(f, faultinject.StaleVarLiveness) {
		t.Fatal("no stale-var-liveness site in the diamond")
	}
	if got := analysis.Liveness(f); got != stale {
		t.Fatal("silent operand swap invalidated the cache — the staleness this test documents cannot happen")
	}

	fresh := liveness.Compute(f)
	differs := false
	for _, b := range f.Blocks() {
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if f.IsPhys(v) {
				continue
			}
			if stale.LiveOut(v, b) != fresh.LiveOut(v, b) ||
				stale.LiveIn(v, b) != fresh.LiveIn(v, b) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("stale per-variable memos still agree with ground truth — the corruption did not move any live range")
	}

	if err := verify.Func(f, verify.StageSSA); err == nil {
		t.Fatal("verifier accepted the stale-var-liveness corruption")
	} else if !strings.Contains(err.Error(), "not dominated by its def in") {
		t.Fatalf("corruption caught by the wrong check: %v", err)
	}
}

// TestReadOnlyPipelinePassZeroCopies pins the zero-copy claim on the
// whole paper workload: one snapshot of each of the 228 SSA-form suite
// masters runs only read-only work (SSA verification, liveness and
// MAXLIVE, the move and φ censuses), which moves the laoc_ir_snapshots
// counter by one per master but neither laoc_ir_cow_materializations
// nor laoc_ir_cow_slab_copies.
func TestReadOnlyPipelinePassZeroCopies(t *testing.T) {
	var masters []*ir.Func
	for _, s := range workload.All() {
		for _, f := range s.Funcs {
			ssa.MustBuild(f)
			f.Freeze()
			masters = append(masters, f)
		}
	}
	if len(masters) != 228 {
		t.Fatalf("workload has %d functions, want 228", len(masters))
	}

	before := ir.Stats()
	for _, master := range masters {
		snap := master.Snapshot()
		if err := verify.Func(snap, verify.StageSSA); err != nil {
			t.Fatalf("%s: %v", master.Name, err)
		}
		_ = liveness.MaxLive(snap, analysis.Liveness(snap))
		_ = snap.CountMoves()
		_ = snap.CountPhis()
		snap.Release()
	}
	d := ir.Stats()
	if n := d.Snapshots - before.Snapshots; n != 228 {
		t.Fatalf("snapshots counter moved by %d, want 228", n)
	}
	if n := d.COWMaterializations - before.COWMaterializations; n != 0 {
		t.Fatalf("read-only passes materialized %d snapshots, want 0", n)
	}
	if n := d.COWSlabCopies - before.COWSlabCopies; n != 0 {
		t.Fatalf("read-only passes copied %d slabs, want 0", n)
	}
}
