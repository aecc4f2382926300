package ir

import (
	"fmt"
	"sync"
	"testing"
)

// buildSnapshotFixture assembles a branchy function (so the edge lists
// are non-trivial) large enough to span several arena chunks.
func buildSnapshotFixture(nInstrs int) *Func {
	bld := NewBuilder("snapfix")
	entry := bld.Block("entry")
	left := bld.Block("left")
	right := bld.Block("right")
	exit := bld.Block("exit")

	bld.SetBlock(entry)
	a, b := bld.Val("a"), bld.Val("b")
	bld.Input(a, b)
	prev := b
	for i := 0; i < nInstrs; i++ {
		next := bld.Val(fmt.Sprintf("t%d", i))
		bld.Binary(Add, next, a, prev)
		prev = next
	}
	bld.Br(prev, left, right)

	bld.SetBlock(left)
	l := bld.Val("l")
	bld.Binary(Mul, l, a, prev)
	bld.Jump(exit)

	bld.SetBlock(right)
	r := bld.Val("r")
	bld.Binary(Sub, r, a, prev)
	bld.Jump(exit)

	bld.SetBlock(exit)
	m := bld.Val("m")
	bld.Phi(m, l, r)
	bld.Output(m)
	return bld.Fn
}

// TestSnapshotReadIsZeroSlabCopy pins the tentpole claim at its root: a
// snapshot that is only read never materializes a slab.
func TestSnapshotReadIsZeroSlabCopy(t *testing.T) {
	f := buildSnapshotFixture(100)
	before := Stats()
	snap := f.Snapshot()
	if snap.CountMoves() != f.CountMoves() || snap.CountPhis() != f.CountPhis() {
		t.Fatalf("snapshot disagrees with parent on pure reads")
	}
	if got, want := snap.ArenaChecksum(), f.ArenaChecksum(); got != want {
		t.Fatalf("snapshot checksum %#x != parent %#x", got, want)
	}
	d := Stats()
	if n := d.Snapshots - before.Snapshots; n != 1 {
		t.Fatalf("snapshots counter moved by %d, want 1", n)
	}
	if n := d.COWSlabCopies - before.COWSlabCopies; n != 0 {
		t.Fatalf("read-only snapshot materialized %d slab copies, want 0", n)
	}
	if n := d.COWMaterializations - before.COWMaterializations; n != 0 {
		t.Fatalf("read-only snapshot counted %d materializations, want 0", n)
	}
}

// TestSnapshotIsolation drives every mutator class against either side
// of a snapshot and asserts the other side's bytes never move.
func TestSnapshotIsolation(t *testing.T) {
	mutate := []struct {
		name string
		fn   func(f *Func)
	}{
		{"ops-in-place", func(f *Func) {
			in := f.Entry().Instr(1) // first Add
			in.SetDefVal(0, in.Def(0))
		}},
		{"ops-pin", func(f *Func) {
			in := f.Entry().Instr(1)
			in.SetDefPin(0, f.Target.R[0])
		}},
		{"ops-append", func(f *Func) {
			in := f.Entry().Instr(1)
			in.AddUse(Ops(in.Use(0))[0])
		}},
		{"code-append", func(f *Func) {
			v := f.NewValue("")
			in := f.NewInstr(Copy, Ops(v), Ops(ValueID(0)))
			f.Entry().InsertBeforeTerminator(in)
		}},
		{"code-remove", func(f *Func) {
			f.Entry().RemoveAt(1)
		}},
		{"edges-add", func(f *Func) {
			blocks := f.Blocks()
			f.AddEdge(blocks[1], blocks[2])
		}},
		{"edges-replace", func(f *Func) {
			exit := f.Blocks()[3]
			exit.ReplacePred(exit.Preds()[0], exit.Preds()[0])
			// Same ID, but the write itself must still fault the slab.
		}},
		{"values-append", func(f *Func) {
			f.NewValue("fresh")
		}},
	}
	for _, side := range []string{"child", "parent"} {
		for _, mc := range mutate {
			t.Run(side+"/"+mc.name, func(t *testing.T) {
				parent := buildSnapshotFixture(40)
				child := parent.Snapshot()
				mutTarget, witness := child, parent
				if side == "parent" {
					mutTarget, witness = parent, child
				}
				sum := witness.ArenaChecksum()
				mc.fn(mutTarget)
				if got := witness.ArenaChecksum(); got != sum {
					t.Fatalf("mutating the %s leaked into the other side: checksum %#x -> %#x", side, sum, got)
				}
			})
		}
	}
}

// TestSnapshotDeepMutationDivergence runs a heavier scenario: both sides
// mutate extensively and must end as two fully independent functions.
func TestSnapshotDeepMutationDivergence(t *testing.T) {
	parent := buildSnapshotFixture(300)
	child := parent.Snapshot()
	wantParent := parent.String()

	// Mutate the child across all three slabs.
	in := child.Entry().Instr(1)
	in.SetUseVal(1, in.Use(0))
	child.Entry().RemoveAt(2)
	blocks := child.Blocks()
	child.AddEdge(blocks[1], blocks[1])
	for i := 0; i < 50; i++ {
		v := child.NewValue("")
		c := child.NewInstr(Const, Ops(v), nil)
		c.Imm = int64(i)
		child.Blocks()[1].InsertBeforeTerminator(c)
	}
	if got := parent.String(); got != wantParent {
		t.Fatalf("parent changed under child mutation:\n%s", got)
	}

	// Now mutate the parent; the child must hold.
	wantChild := child.String()
	pin := parent.Entry().Instr(1)
	pin.SetDefVal(0, pin.Def(0))
	parent.Blocks()[2].RemoveAt(0)
	if got := child.String(); got != wantChild {
		t.Fatalf("child changed under parent mutation:\n%s", got)
	}
	if err := parent.Verify(); err != nil {
		t.Fatalf("parent failed verify after divergence: %v", err)
	}
}

// TestSnapshotMatchesClone asserts a materialized snapshot is
// observationally a deep copy: the same mutation applied to a Clone and
// to a Snapshot of the same function produces byte-identical results.
func TestSnapshotMatchesClone(t *testing.T) {
	base := buildSnapshotFixture(120)
	cl := base.Clone()
	sn := base.Snapshot()
	mutate := func(f *Func) {
		in := f.Entry().Instr(3)
		in.SetDefVal(0, in.Def(0))
		f.Blocks()[1].RemoveAt(0)
		v := f.NewValue("x")
		c := f.NewInstr(Const, Ops(v), nil)
		c.Imm = 7
		f.Blocks()[2].InsertBeforeTerminator(c)
	}
	mutate(cl)
	mutate(sn)
	if cl.String() != sn.String() {
		t.Fatalf("clone and snapshot diverged after identical mutations:\n--- clone\n%s\n--- snapshot\n%s", cl.String(), sn.String())
	}
	if cl.ArenaChecksum() != sn.ArenaChecksum() {
		t.Fatalf("clone and snapshot checksums differ after identical mutations")
	}
}

// TestSnapshotAdoption: when every other family member is gone
// (released), the survivor's first mutation adopts the shared storage
// instead of copying it.
func TestSnapshotAdoption(t *testing.T) {
	parent := buildSnapshotFixture(50)
	child := parent.Snapshot()
	parent.Release()
	before := Stats()
	in := child.Entry().Instr(1)
	in.SetDefVal(0, in.Def(0))
	d := Stats()
	if n := d.COWAdoptions - before.COWAdoptions; n != 1 {
		t.Fatalf("adoptions moved by %d, want 1", n)
	}
	if n := d.COWSlabCopies - before.COWSlabCopies; n != 0 {
		t.Fatalf("adoption path still copied %d slabs, want 0", n)
	}
	if child.cow != nil {
		t.Fatalf("child still frozen after adopting the family storage")
	}
}

// TestSnapshotAllocsBelowClone pins the headline allocation claim:
// taking a snapshot allocates strictly less than a clone, and even a
// snapshot that then materializes every slab stays at or below the
// clone budget.
func TestSnapshotAllocsBelowClone(t *testing.T) {
	f := buildSnapshotFixture(600)
	f.Freeze()
	cloneAllocs := int(testing.AllocsPerRun(20, func() {
		_ = f.Clone()
	}))
	snapAllocs := int(testing.AllocsPerRun(20, func() {
		_ = f.Snapshot()
	}))
	if snapAllocs >= cloneAllocs {
		t.Errorf("Snapshot allocates %d, Clone %d — snapshot must be strictly cheaper", snapAllocs, cloneAllocs)
	}
	if budget := f.snapshotSlabCount(); snapAllocs > budget {
		t.Errorf("Snapshot made %d allocations, budget is %d", snapAllocs, budget)
	}
}

// TestConcurrentSnapshots takes snapshots of one frozen master from
// many goroutines at once, half of them mutating their private copy.
// Run under -race this is the publication-safety proof for the batch
// driver's fan-out.
func TestConcurrentSnapshots(t *testing.T) {
	master := buildSnapshotFixture(200)
	master.Freeze()
	want := master.ArenaChecksum()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				snap := master.Snapshot()
				if g%2 == 0 {
					in := snap.Entry().Instr(1)
					in.SetDefVal(0, in.Def(0))
					snap.Entry().RemoveAt(2)
				} else if snap.ArenaChecksum() != want {
					t.Errorf("goroutine %d: read-only snapshot checksum mismatch", g)
					return
				}
				snap.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := master.ArenaChecksum(); got != want {
		t.Fatalf("master mutated by concurrent snapshot traffic: %#x -> %#x", want, got)
	}
}

// TestSnapshotOfPartiallyMaterialized pins the re-freeze rule: a Func
// that faulted only SOME of its shared slabs (private, un-capped
// storage behind cleared share flags) must not hand that storage to a
// new snapshot without re-freezing — its own in-place writes would leak
// into the snapshot. This is exactly the checked batch driver's shape:
// SSA construction mutates a job's snapshot partially, then the
// checked-mode COW probe (or Config.Fallback's rollback backup)
// snapshots it.
func TestSnapshotOfPartiallyMaterialized(t *testing.T) {
	master := buildSnapshotFixture(80)
	f := master.Snapshot()
	// Fault the ops slab only: f is now partially materialized (private
	// ops, shared code/edges, still a family member).
	in := f.Entry().Instr(1)
	in.SetDefVal(0, in.Def(0))
	if f.cow == nil || f.sharedOps || !f.sharedCode {
		t.Fatalf("fixture did not reach the partially-materialized state")
	}
	backup := f.Snapshot()
	sum := backup.ArenaChecksum()
	// Keep mutating f's operand slab in place; the backup must not move.
	for i := 0; i < 30; i++ {
		in := f.Entry().Instr(2)
		in.SetUseVal(0, in.Use(0))
		in.SetDefPin(0, f.Target.R[0])
		in.SetDefPin(0, NoValue)
	}
	f.NewValue("spill")
	if got := backup.ArenaChecksum(); got != sum {
		t.Fatalf("backup corrupted by parent's post-snapshot writes: %#x -> %#x", sum, got)
	}
	if got, want := master.ArenaChecksum(), master.ArenaChecksum(); got != want {
		t.Fatalf("master checksum unstable")
	}
}

// TestCOWProbeHoldsOnHealthyIR: the isolation probe passes on a
// branchy φ function and leaves it byte-identical, frozen, and still
// mutable afterwards.
func TestCOWProbeHoldsOnHealthyIR(t *testing.T) {
	f := buildSnapshotFixture(60)
	want := f.String()
	if err := f.ProbeCOWIsolation(); err != nil {
		t.Fatalf("probe failed on healthy IR: %v", err)
	}
	if got := f.String(); got != want {
		t.Fatalf("probe changed the probed function:\n%s", got)
	}
	if f.cow == nil {
		t.Fatal("probe must leave f frozen (its snapshots shared the slabs)")
	}
	// The throwaway snapshots were released, so f's next mutation must
	// re-privatize by adoption, with no slab copy.
	before := Stats()
	in := f.Entry().Instr(0)
	in.SetDefVal(0, in.Def(0))
	if n := Stats().COWSlabCopies - before.COWSlabCopies; n != 0 {
		t.Fatalf("post-probe mutation copied %d slabs, want adoption (0)", n)
	}
}

// TestChecksumWitnessesForgedAliasing is the negative control for the
// ProbeCOWIsolation probe: hand-forge the bug the probe
// exists to catch — two functions sharing an operand slab with no cow
// family tracking it — and confirm the checksum witness moves when
// one side writes. Only possible in-package; the public API cannot
// construct this state (which is the point).
func TestChecksumWitnessesForgedAliasing(t *testing.T) {
	f := buildSnapshotFixture(60)
	g := f.Clone()
	g.ops = f.ops // the forged alias
	sum := f.ArenaChecksum()
	in := g.Entry().Instr(1)
	in.SetDefPin(0, g.Target.R[0])
	if got := f.ArenaChecksum(); got == sum {
		t.Fatalf("forged slab aliasing was not visible to the checksum witness")
	}
}

// TestRestoreFromSnapshot exercises the checked pipeline's rollback
// path over a snapshot backup instead of a clone.
func TestRestoreFromSnapshot(t *testing.T) {
	f := buildSnapshotFixture(60)
	want := f.String()
	backup := f.Snapshot()
	// Wreck f.
	f.Entry().Truncate(1)
	in := f.Entry().Instr(0)
	_ = in
	f.RestoreFrom(backup)
	if got := f.String(); got != want {
		t.Fatalf("RestoreFrom(snapshot) did not restore:\n%s", got)
	}
	// f must remain fully usable, including further mutation.
	v := f.NewValue("post")
	c := f.NewInstr(Const, Ops(v), nil)
	f.Entry().InsertBeforeTerminator(c)
	if err := f.Verify(); err != nil {
		t.Fatalf("restored function failed verify: %v", err)
	}
}
