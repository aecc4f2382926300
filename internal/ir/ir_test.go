package ir_test

import (
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/testprog"
	"outofssa/internal/verify"
)

func TestVerifyStructured(t *testing.T) {
	for _, f := range testprog.All() {
		if err := f.Verify(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	bld := ir.NewBuilder("bad")
	bld.Block("entry")
	v := bld.Val("v")
	bld.Const(v, 1)
	if err := bld.Fn.Verify(); err == nil {
		t.Fatal("expected error for unterminated block")
	}
}

func TestVerifyCatchesInconsistentEdges(t *testing.T) {
	bld := ir.NewBuilder("bad")
	entry := bld.Block("entry")
	other := bld.Fn.NewBlock("other")
	bld.SetBlock(other)
	bld.Output()
	bld.SetBlock(entry)
	bld.Output()
	entry.SetSuccs(append(entry.Succs(), other.ID)) // no matching pred
	if err := bld.Fn.Verify(); err == nil {
		t.Fatal("expected error for asymmetric edge")
	}
}

func TestVerifyCatchesPhiArityMismatch(t *testing.T) {
	bld := ir.NewBuilder("bad")
	entry := bld.Block("entry")
	join := bld.Fn.NewBlock("join")
	bld.SetBlock(entry)
	bld.Jump(join)
	bld.SetBlock(join)
	x, a, b := bld.Val("x"), bld.Val("a"), bld.Val("b")
	bld.Phi(x, a, b) // two args, one pred
	bld.Output(x)
	if err := bld.Fn.Verify(); err == nil {
		t.Fatal("expected error for φ arity mismatch")
	}
}

func TestExecDiamond(t *testing.T) {
	f := testprog.Diamond()
	cases := []struct {
		a, b, want int64
	}{
		{1, 5, 12},  // a<b: (a+b)*2
		{5, 1, 8},   // else: (a-b)*2
		{3, 3, 0},   // equal: (a-b)*2 = 0
		{-4, 2, -4}, // (-4+2)*2
	}
	for _, c := range cases {
		res, err := ir.Exec(f, []int64{c.a, c.b}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outputs) != 1 || res.Outputs[0] != c.want {
			t.Errorf("diamond(%d,%d) = %v, want %d", c.a, c.b, res.Outputs, c.want)
		}
	}
}

func TestExecLoop(t *testing.T) {
	f := testprog.Loop()
	for n := int64(0); n < 10; n++ {
		res, err := ir.Exec(f, []int64{n}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		want := n * (n - 1) / 2
		if res.Outputs[0] != want {
			t.Errorf("loop(%d) = %d, want %d", n, res.Outputs[0], want)
		}
	}
}

func TestExecStepLimit(t *testing.T) {
	f := testprog.Loop()
	_, err := ir.Exec(f, []int64{1 << 40}, 100)
	if err != ir.ErrStepLimit {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

func TestExecDeterministicCallsAndLoads(t *testing.T) {
	f := testprog.WithCallsAndStack()
	r1, err := ir.Exec(f, []int64{7, 100}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ir.Exec(f, []int64{7, 100}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("execution is not deterministic")
	}
	r3, _ := ir.Exec(f, []int64{8, 100}, 1000)
	if r1.Equal(r3) {
		t.Fatal("different inputs produced identical observable behaviour")
	}
}

func TestParCopySemantics(t *testing.T) {
	bld := ir.NewBuilder("pc")
	bld.Block("entry")
	a, b := bld.Val("a"), bld.Val("b")
	bld.Input(a, b)
	// swap via parallel copy
	bld.Cur.Append(bld.Fn.NewInstr(ir.ParCopy, ir.Ops(a, b), ir.Ops(b, a)))
	bld.Output(a, b)
	res, err := ir.Exec(bld.Fn, []int64{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 2 || res.Outputs[1] != 1 {
		t.Fatalf("parallel copy swap failed: %v", res.Outputs)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := testprog.SwapLoop()
	g := f.Clone()
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	r1, err := ir.Exec(f, []int64{3, 9, 4}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ir.Exec(g, []int64{3, 9, 4}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("clone changed observable behaviour")
	}
	// Mutating the clone must not affect the original.
	g.Entry().Truncate(0)
	g.NewValue("cloneOnly")
	if err := f.Verify(); err != nil {
		t.Fatalf("mutating clone broke original: %v", err)
	}
	if f.NumValues() == g.NumValues() {
		t.Fatal("value creation on the clone leaked into the original")
	}
	if r3, err := ir.Exec(f, []int64{3, 9, 4}, 10000); err != nil || !r1.Equal(r3) {
		t.Fatalf("original changed behaviour after clone mutation: %v", err)
	}
}

func TestCountMoves(t *testing.T) {
	bld := ir.NewBuilder("moves")
	bld.Block("entry")
	a, b, c := bld.Val("a"), bld.Val("b"), bld.Val("c")
	bld.Input(a)
	bld.Copy(b, a)
	bld.Copy(c, b)
	bld.Copy(c, c)                                                          // self-move: not counted
	bld.Cur.Append(bld.Fn.NewInstr(ir.ParCopy, ir.Ops(a, b), ir.Ops(b, b))) // one real move (a=b), one self (b=b)
	bld.Output(c)
	if got := bld.Fn.CountMoves(); got != 3 {
		t.Fatalf("CountMoves = %d, want 3", got)
	}
}

func TestWeightedMoves(t *testing.T) {
	f := testprog.Loop()
	// Manually: mark body as depth 2, put a copy there.
	var body *ir.Block
	for _, b := range f.Blocks() {
		if b.Name == "body" {
			body = b
		}
	}
	body.LoopDepth = 2
	v := f.NewValue("tmp")
	body.InsertAt(0, f.NewInstr(ir.Copy, ir.Ops(v), ir.Ops(v)))
	// self copy: weight 0; add a real one
	w := f.NewValue("tmp2")
	body.InsertAt(0, f.NewInstr(ir.Copy, ir.Ops(w), ir.Ops(v)))
	if got := f.WeightedMoves(); got != 25 {
		t.Fatalf("WeightedMoves = %d, want 25", got)
	}
}

func TestPrintContainsPins(t *testing.T) {
	f := testprog.Diamond()
	in := f.Entry().Instr(0)
	in.SetDefPin(0, f.Target.R[0])
	s := f.String()
	if !strings.Contains(s, "^R0") {
		t.Fatalf("printed form lacks pin annotation:\n%s", s)
	}
}

func TestTwoOperandClassification(t *testing.T) {
	for _, op := range []ir.Op{ir.More, ir.AutoAdd, ir.Mac} {
		if !op.IsTwoOperand() {
			t.Errorf("%v should be 2-operand", op)
		}
	}
	for _, op := range []ir.Op{ir.Add, ir.Copy, ir.Phi, ir.Call} {
		if op.IsTwoOperand() {
			t.Errorf("%v should not be 2-operand", op)
		}
	}
}

// entryLoop is a function whose entry block is also a loop header, with
// b used before it is defined. SSA construction gave b an implicit
// definition on .input, which the back edge runs again, so the compiled
// loop reset b on every iteration and never ended; no φ was placed at
// the entry either. .input runs once, before any loop: Verify rejects an
// entry block with predecessors.
const entryLoop = ".func entryloop\n.input five:R0\nentry:\n    const  one, 1\n    add    b, b, one\n    blt    b, five, entry\n    ret    b\n"

// TestVerifyRejectsEntryLoop: the LAI parser, both decoders and the
// checked pipeline's verifier refuse a function whose entry block has a
// predecessor.
func TestVerifyRejectsEntryLoop(t *testing.T) {
	const want = "entry block entry has predecessors"
	if _, err := lai.Parse(entryLoop); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("lai.Parse = %v, want an error containing %q", err, want)
	}
	bld := ir.NewBuilder("entryloop")
	entry := bld.Block("entry")
	exit := bld.Fn.NewBlock("exit")
	five, one, b, c := bld.Val("five"), bld.Val("one"), bld.Val("b"), bld.Val("c")
	bld.Input(five)
	bld.Const(one, 1)
	bld.Binary(ir.Add, b, b, one)
	bld.Binary(ir.CmpLT, c, b, five)
	bld.Br(c, entry, exit)
	bld.SetBlock(exit)
	bld.Output(b)
	f := bld.Fn
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify = %v, want an error containing %q", err, want)
	}
	if err := verify.Func(f, verify.StagePostSSA); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("verify.Func = %v, want an error containing %q", err, want)
	}
	for _, marshal := range []func(*ir.Func) ([]byte, error){ir.MarshalV1, ir.MarshalBinary} {
		doc, err := marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.Unmarshal(doc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Unmarshal = %v, want an error containing %q", err, want)
		}
	}
}

// TestVerifyRejectsUndefinedParameters pins the .input rule: Imm
// declares the first Imm defs as parameters, so it may not exceed the
// defs. FuzzCompileHandler found a b1 body whose .input declared four
// parameters and defined none: SSA construction gave the four
// undefined values entry definitions, the ABI pinned them to R0-R3 as
// parameters, and the 200 answer diverged from the input under ir.Exec.
// Both decoders reject such a document, since they end in Verify.
func TestVerifyRejectsUndefinedParameters(t *testing.T) {
	f, err := lai.Parse(".func f\n.input A, B\nentry:\n    add C, A, B\n    ret C\n.endfunc\n")
	if err != nil {
		t.Fatal(err)
	}
	in := f.Entry().Instr(0)
	for _, imm := range []int64{3, -1} {
		in.Imm = imm
		if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "bad .input") {
			t.Errorf("Imm %d: Verify = %v, want a bad .input error", imm, err)
		}
		for _, marshal := range []func(*ir.Func) ([]byte, error){ir.MarshalV1, ir.MarshalBinary} {
			doc, err := marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ir.Unmarshal(doc); err == nil {
				t.Errorf("Imm %d: a document declaring it decoded", imm)
			}
		}
	}
	in.Imm = 2
	if err := f.Verify(); err != nil {
		t.Fatalf("Imm 2: %v", err)
	}
}
