package verify_test

import (
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/verify"
	"outofssa/internal/workload"
)

// wantViolation fails t unless verify.Func rejects f at stage with an
// error containing want. At StageSSA, when f passes ssa.Verify,
// verify.AfterSSAVerify must report the same error.
func wantViolation(t *testing.T, f *ir.Func, stage verify.Stage, want string) {
	t.Helper()
	err := verify.Func(f, stage)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("verify.Func(%s, %v) = %v, want an error containing %q", f.Name, stage, err, want)
	}
	if stage == verify.StageSSA && ssa.Verify(f) == nil {
		if got := verify.AfterSSAVerify(f); got == nil || got.Error() != err.Error() {
			t.Fatalf("verify.AfterSSAVerify(%s) = %v, verify.Func %v", f.Name, got, err)
		}
	}
}

// diamond builds entry → {l, r} → join, where join merges inputs a1
// and a2 in the φ x, leaving the builder at the end of join.
func diamond(name string) (bld *ir.Builder, join *ir.Block, a1, a2, x ir.ValueID) {
	bld = ir.NewBuilder(name)
	entry := bld.Block("entry")
	l, r := bld.Fn.NewBlock("l"), bld.Fn.NewBlock("r")
	join = bld.Fn.NewBlock("join")
	c := bld.Val("c")
	a1, a2, x = bld.Val("a1"), bld.Val("a2"), bld.Val("x")
	bld.SetBlock(entry)
	bld.Input(c, a1, a2)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x, a1, a2)
	return bld, join, a1, a2, x
}

// TestTranslatedRejectsSSALeftovers: after out-of-SSA translation no φ
// and no parallel copy may remain.
func TestTranslatedRejectsSSALeftovers(t *testing.T) {
	bld, _, _, _, x := diamond("phi")
	bld.Output(x)
	if err := verify.Func(bld.Fn, verify.StageSSA); err != nil {
		t.Fatalf("the φ function is legal SSA: %v", err)
	}
	wantViolation(t, bld.Fn, verify.StagePostSSA, "survived out-of-SSA translation")

	bld = ir.NewBuilder("pcopy")
	bld.Block("entry")
	a, b, c, d := bld.Val("a"), bld.Val("b"), bld.Val("c"), bld.Val("d")
	bld.Input(a, b)
	bld.Cur.Append(bld.Fn.NewInstr(ir.ParCopy, ir.Ops(c, d), ir.Ops(b, a)))
	bld.Output(c, d)
	wantViolation(t, bld.Fn, verify.StagePostSSA, "not sequentialized")
}

// TestStrongInterferenceScan: pinning two φs of different blocks to one
// register when a shared predecessor feeds them different values is a
// Class 3 strong interference. pin.Validate checks only Fig. 4's
// textual rules and accepts the pinning, so the scan behind it is what
// rejects it. Class 4 (φs of one block) never gets that far: Validate
// already rejects it as Fig. 4 case 3.
func TestStrongInterferenceScan(t *testing.T) {
	bld := ir.NewBuilder("class3")
	entry := bld.Block("entry")
	j1, j2 := bld.Fn.NewBlock("j1"), bld.Fn.NewBlock("j2")
	c, x1, y1, x, y := bld.Val("c"), bld.Val("x1"), bld.Val("y1"), bld.Val("x"), bld.Val("y")
	bld.SetBlock(entry)
	bld.Input(c, x1, y1)
	bld.Br(c, j1, j2) // entry is a predecessor of both j1 and j2
	bld.SetBlock(j1)
	px := bld.Phi(x, x1)
	bld.Jump(j2)
	bld.SetBlock(j2)
	py := bld.Phi(y, y1, x) // y1 from entry, where x has x1
	bld.Output(y)
	f := bld.Fn
	if err := verify.Func(f, verify.StageSSA); err != nil {
		t.Fatalf("unpinned, the function is legal: %v", err)
	}
	r0 := f.Target.R[0]
	px.SetDefPin(0, r0)
	py.SetDefPin(0, r0)
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := pin.Validate(f, res); err != nil {
		t.Fatalf("pin.Validate rejects the Class 3 pinning itself: %v", err)
	}
	wantViolation(t, f, verify.StageSSA, "strongly interfere (Classes 3-4)")

	bld, join, a1, a2, x4 := diamond("class4")
	y4, s := bld.Val("y"), bld.Val("s")
	bld.Phi(y4, a1, a2)
	bld.Binary(ir.Add, s, x4, y4)
	bld.Output(s)
	r0 = bld.Fn.Target.R[0]
	for _, phi := range join.Phis() {
		phi.SetDefPin(0, r0)
	}
	wantViolation(t, bld.Fn, verify.StageSSA, "Fig.4 case 3")
}

// TestSSAStageViolations: at StageSSA the structure is checked once,
// before the SSA form, and each kind of violation is reported under its
// own prefix: a structural one never reaches the SSA checks, and a
// function that is well formed but not in SSA form fails them.
func TestSSAStageViolations(t *testing.T) {
	f := testprog.Loop() // pre-SSA: s and i have two definitions
	wantViolation(t, f, verify.StageSSA, `ssa: loop: s has two definitions: "const s, 0" and "add s = s, i"`)

	bld := ir.NewBuilder("undominated")
	entry := bld.Block("entry")
	l, join := bld.Fn.NewBlock("l"), bld.Fn.NewBlock("join")
	c, x := bld.Val("c"), bld.Val("x")
	bld.SetBlock(entry)
	bld.Input(c)
	bld.Br(c, l, join)
	bld.SetBlock(l)
	bld.Const(x, 1)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Output(x)
	wantViolation(t, bld.Fn, verify.StageSSA, "ssa: undominated: use of x in \".output x\" (block join) not dominated by its definition")

	bld, join, _, _, x = diamond("arity")
	bld.Output(x)
	join.Instr(0).RemoveUseAt(1)
	err := verify.Func(bld.Fn, verify.StageSSA)
	if err == nil || !strings.HasPrefix(err.Error(), "structure: arity: φ \"phi x = a1\" has 1 args for 2 preds of join") {
		t.Fatalf("verify.Func = %v, want the structural φ arity violation", err)
	}
}

// TestDenseTablesRejectSharedIDs: a block listed twice in the layout is
// two blocks sharing an ID, which every dense table would alias.
func TestDenseTablesRejectSharedIDs(t *testing.T) {
	bld, join, _, _, x := diamond("shared")
	bld.Output(x)
	f := bld.Fn
	if err := verify.Func(f, verify.StageSSA); err != nil {
		t.Fatalf("the diamond is legal: %v", err)
	}
	var ids []ir.BlockID
	for _, b := range f.Blocks() {
		ids = append(ids, b.ID)
	}
	f.SetBlockOrder(append(ids, join.ID))
	wantViolation(t, f, verify.StageSSA, "tables: shared: blocks join and join share ID 3")
}

// TestUnknownStage: a stage the verifier does not know is an error, not
// a pass.
func TestUnknownStage(t *testing.T) {
	bld := ir.NewBuilder("ok")
	bld.Block("entry")
	a := bld.Val("a")
	bld.Input(a)
	bld.Output(a)
	if err := verify.Func(bld.Fn, verify.StagePostSSA); err != nil {
		t.Fatalf("legal function rejected: %v", err)
	}
	wantViolation(t, bld.Fn, verify.Stage(7), "unknown stage")
}

// TestFuncLeavesArenaUnchanged: the verifier only reads the IR. On all
// 228 converted suite masters at StageSSA, and on their Lphi,ABI+C
// outputs at StagePostSSA, it passes and leaves the arena checksum as
// it found it.
func TestFuncLeavesArenaUnchanged(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	check := func(f *ir.Func, stage verify.Stage) {
		t.Helper()
		sum := f.ArenaChecksum()
		if err := verify.Func(f, stage); err != nil {
			t.Fatalf("%s at %v: %v", f.Name, stage, err)
		}
		if got := f.ArenaChecksum(); got != sum {
			t.Fatalf("%s at %v: verify.Func moved the arena checksum %#x -> %#x", f.Name, stage, sum, got)
		}
	}
	n := 0
	for _, build := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples, workload.LAILarge, workload.SPECint,
	} {
		for _, f := range build().Funcs {
			n++
			info, err := pipeline.BuildSSA(f)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			check(f, verify.StageSSA)
			if err := verify.AfterSSAVerify(f); err != nil {
				t.Fatalf("%s: AfterSSAVerify: %v", f.Name, err)
			}
			if _, err := pipeline.Run(f, conf, pipeline.WithSSAInfo(info)); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			check(f, verify.StagePostSSA)
		}
	}
	if n != 228 {
		t.Fatalf("checked %d suite functions, want 228", n)
	}
}
