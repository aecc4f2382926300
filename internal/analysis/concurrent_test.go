package analysis_test

import (
	"sync"
	"testing"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/verify"
	"outofssa/internal/workload"
)

// TestConcurrentReadersOneSnapshot is the -race proof for the
// concurrent-read analysis cache: 8+ goroutines share ONE snapshot
// marked for shared reads and hammer Liveness, Dominators and point
// queries simultaneously. Every goroutine must observe the same
// memoized Info/DomTree pointers (atomic publication, single-flight
// compute) and identical query answers; the memo counters must show
// exactly one compute per analysis kind.
func TestConcurrentReadersOneSnapshot(t *testing.T) {
	const (
		readers = 8
		rounds  = 200
	)
	master := testprog.NestedLoops()
	ssa.MustBuild(master)
	master.Freeze()
	snap := master.Snapshot()
	snap.MarkSharedRead()

	// Reference answers on an identical function, also shared-read: the
	// goroutines query both sides, so both Infos must be frozen.
	ref := testprog.NestedLoops()
	ssa.MustBuild(ref)
	ref.MarkSharedRead()
	refLive := analysis.Liveness(ref)
	refDom := analysis.Dominators(ref)

	before := analysis.Stats()
	irBefore := ir.Stats()

	var wg sync.WaitGroup
	liveSeen := make([]*liveness.Info, readers)
	domSeen := make([]*cfg.DomTree, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				live := analysis.Liveness(snap)
				dom := analysis.Dominators(snap)
				// Point queries across every block and value.
				blocks := snap.Blocks()
				refBlocks := ref.Blocks()
				for bi, b := range blocks {
					rb := refBlocks[bi]
					for v := 0; v < snap.NumValues(); v++ {
						id := ir.ValueID(v)
						if live.LiveIn(id, b) != refLive.LiveIn(id, rb) ||
							live.LiveOut(id, b) != refLive.LiveOut(id, rb) {
							t.Errorf("goroutine %d: liveness point query diverged at block %d value %d", g, bi, v)
							return
						}
					}
					for bj, c := range blocks {
						if dom.Dominates(b, c) != refDom.Dominates(rb, refBlocks[bj]) {
							t.Errorf("goroutine %d: dominance query diverged at (%d,%d)", g, bi, bj)
							return
						}
					}
				}
				if round == 0 {
					liveSeen[g] = live
					domSeen[g] = dom
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < readers; g++ {
		if liveSeen[g] != liveSeen[0] || domSeen[g] != domSeen[0] {
			t.Fatalf("goroutine %d observed a different memo entry than goroutine 0 — publication is not shared", g)
		}
	}
	d := analysis.Stats()
	if n := d.LivenessComputes - before.LivenessComputes; n != 1 {
		t.Fatalf("%d liveness computes across %d concurrent readers, want 1 (single-flight)", n, readers)
	}
	if n := d.DominatorsComputes - before.DominatorsComputes; n != 1 {
		t.Fatalf("%d dominator computes across %d concurrent readers, want 1 (single-flight)", n, readers)
	}
	irAfter := ir.Stats()
	if n := irAfter.COWSlabCopies - irBefore.COWSlabCopies; n != 0 {
		t.Fatalf("concurrent read-only analysis materialized %d slab copies, want 0", n)
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

// TestBatchSharedSnapshotRace fans one shared-read snapshot through the
// batch driver's own concurrency shape: every job reads the same
// snapshot (analysis + counts) while the driver schedules across
// shards. Run under -race this covers the pipeline-side read path the
// pure-analysis test above cannot reach.
func TestBatchSharedSnapshotRace(t *testing.T) {
	master := testprog.NestedLoops()
	ssa.MustBuild(master)
	master.Freeze()
	shared := master.Snapshot()
	shared.MarkSharedRead()

	// A full pipeline run would mutate its input, so the fan-out drives
	// the read-only half of a job (analysis + censuses) directly with
	// the driver's worker count; mutating jobs are covered by
	// pipeline.TestBatchDeterminism over per-job snapshots.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				f := shared
				live := analysis.Liveness(f)
				for _, b := range f.Blocks() {
					_ = live.LiveInSet(b)
					_ = live.LiveOutSet(b)
				}
				_ = analysis.Dominators(f)
				_ = f.CountMoves()
			}
		}()
	}
	wg.Wait()
	if err := shared.Verify(); err != nil {
		t.Fatalf("shared snapshot damaged by concurrent reads: %v", err)
	}
}
